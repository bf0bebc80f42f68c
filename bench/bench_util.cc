#include "bench_util.h"

#include "core/normality.h"
#include "core/scoring.h"
#include "linalg/stats.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <limits>

namespace charles {
namespace bench {

int BenchThreads() {
  const char* env = std::getenv("CHARLES_BENCH_THREADS");
  if (env == nullptr || *env == '\0') return 1;
  char* end = nullptr;
  errno = 0;
  long threads = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || threads < 0 || errno == ERANGE ||
      threads > std::numeric_limits<int>::max()) {
    std::fprintf(stderr,
                 "CHARLES_BENCH_THREADS='%s' is not a non-negative integer; "
                 "using 1 thread\n",
                 env);
    return 1;
  }
  return static_cast<int>(threads);
}

Result<ChangeSummary> BuildGlobalRegressionBaseline(const CharlesEngine& engine,
                                                    const Table& source,
                                                    const std::vector<double>& y_old,
                                                    const std::vector<double>& y_new) {
  // A single TRUE-conditioned partition over every row, transformed by a
  // snapped regression of the new target on its old value.
  const CharlesOptions& options = engine.options();
  const std::string& target = options.target_attribute;
  CHARLES_ASSIGN_OR_RETURN(const Column* column, source.ColumnByName(target));
  CHARLES_ASSIGN_OR_RETURN(std::vector<double> old_values, column->ToDoubles());
  Matrix x(source.num_rows(), 1);
  for (int64_t row = 0; row < source.num_rows(); ++row) {
    x.At(row, 0) = old_values[static_cast<size_t>(row)];
  }
  CHARLES_ASSIGN_OR_RETURN(LinearModel model, LinearRegression::Fit(x, y_new, {target}));
  NormalityOptions normality = options.normality;
  normality.exactness_tolerance =
      std::max(normality.exactness_tolerance, options.numeric_tolerance);
  std::vector<double> y_hat;
  model = SnapModel(model, x, y_new, normality, /*error_spec=*/nullptr, &y_hat);
  model.mae = MeanAbsoluteError(y_hat, y_new);
  ConditionalTransform ct;
  ct.condition = MakeTrue();
  ct.rows = RowSet::All(source.num_rows());
  ct.coverage = ct.rows.Coverage(source.num_rows());
  ct.transform = LinearTransform::Linear(target, model);
  ct.partition_mae = model.mae;
  ChangeSummary summary({std::move(ct)}, target);
  summary.set_attributes({}, {target});
  Scorer scorer(options, y_old, y_new);
  CHARLES_ASSIGN_OR_RETURN(ScoreBreakdown scores, scorer.ApplyAndScore(summary, source));
  summary.set_scores(scores);
  return summary;
}

Result<ChangeSummary> BuildCellDiffBaseline(const CharlesOptions& options,
                                            const Table& source,
                                            const std::vector<double>& y_old,
                                            const std::vector<double>& y_new) {
  if (options.key_columns.size() != 1) {
    return Status::InvalidArgument("cell-diff baseline expects a single key column");
  }
  const std::string& key = options.key_columns[0];
  std::vector<ConditionalTransform> cts;
  for (int64_t row = 0; row < source.num_rows(); ++row) {
    double delta = y_new[static_cast<size_t>(row)] - y_old[static_cast<size_t>(row)];
    if (std::abs(delta) <= options.numeric_tolerance) continue;
    ConditionalTransform ct;
    CHARLES_ASSIGN_OR_RETURN(Value key_value, source.GetValueByName(row, key));
    ct.condition = MakeColumnCompare(key, CompareOp::kEq, key_value);
    LinearModel constant;
    constant.intercept = y_new[static_cast<size_t>(row)];
    ct.transform = LinearTransform::Linear(options.target_attribute, constant);
    ct.rows = RowSet({row});
    ct.coverage = RowSet({row}).Coverage(source.num_rows());
    ct.partition_mae = 0.0;
    cts.push_back(std::move(ct));
  }
  ChangeSummary summary(std::move(cts), options.target_attribute);
  Scorer scorer(options, y_old, y_new);
  CHARLES_ASSIGN_OR_RETURN(ScoreBreakdown scores,
                           scorer.ApplyAndScore(summary, source));
  summary.set_scores(scores);
  return summary;
}

}  // namespace bench
}  // namespace charles
