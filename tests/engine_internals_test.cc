#include <gtest/gtest.h>

#include <cstring>

#include "core/engine.h"
#include "core/engine_context.h"
#include "core/normality.h"
#include "core/partition_finder.h"
#include "core/run_pipeline.h"
#include "core/scoring.h"
#include "workload/example1.h"

namespace charles {
namespace {

TEST(CanonicalizeLabelsTest, FirstAppearanceRenumbering) {
  EXPECT_EQ(PartitionFinder::CanonicalizeLabels({2, 2, 0, 1, 0}),
            (std::vector<int>{0, 0, 1, 2, 1}));
  EXPECT_EQ(PartitionFinder::CanonicalizeLabels({0, 1, 2}), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(PartitionFinder::CanonicalizeLabels({5, 5, 5}), (std::vector<int>{0, 0, 0}));
  EXPECT_TRUE(PartitionFinder::CanonicalizeLabels({}).empty());
}

TEST(CanonicalizeLabelsTest, EquivalentClusteringsCollide) {
  // Same partition, different label names, must canonicalize identically.
  std::vector<int> a = {0, 0, 1, 1, 2};
  std::vector<int> b = {2, 2, 0, 0, 1};
  EXPECT_EQ(PartitionFinder::CanonicalizeLabels(a),
            PartitionFinder::CanonicalizeLabels(b));
}

class CacheEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    source_ = MakeExample1Source().ValueOrDie();
    target_ = MakeExample1Target().ValueOrDie();
    options_.target_attribute = "bonus";
    options_.key_columns = {"name"};
    options_.num_threads = 1;
    // Larger than the run's work items, so the ranking keeps every distinct
    // signature phase 3 builds.
    options_.top_n = 1'000'000;
  }

  /// Drives every stage by hand and returns the run's result: one summary
  /// per distinct signature, best first.
  SummaryList Run(const CharlesEngine& engine) {
    RunState state(engine, source_, target_, /*stream=*/nullptr, /*stop=*/nullptr);
    size_t count = 0;
    const RunPipeline::StageSpec* stages = RunPipeline::Stages(&count);
    for (size_t s = 0; s < count; ++s) {
      Status status = stages[s].fn(state);
      EXPECT_TRUE(status.ok()) << stages[s].name << ": " << status.ToString();
    }
    EXPECT_LE(state.work_items, options_.top_n);
    EXPECT_EQ(static_cast<int64_t>(state.result.summaries.size()),
              state.result.candidates_evaluated - state.result.candidates_deduped);
    return std::move(state.result);
  }

  void ExpectSameSummaries(const SummaryList& expected, const SummaryList& actual) {
    ASSERT_EQ(expected.summaries.size(), actual.summaries.size());
    for (size_t i = 0; i < expected.summaries.size(); ++i) {
      const ChangeSummary& a = expected.summaries[i];
      const ChangeSummary& b = actual.summaries[i];
      EXPECT_EQ(a.Signature(), b.Signature()) << "rank " << i;
      const double sa = a.scores().score;
      const double sb = b.scores().score;
      EXPECT_EQ(std::memcmp(&sa, &sb, sizeof(double)), 0) << "rank " << i;
      EXPECT_EQ(a.ToString(), b.ToString()) << "rank " << i;
    }
  }

  Table source_;
  Table target_;
  CharlesOptions options_;
};

TEST_F(CacheEquivalenceTest, CachedAndUncachedSummariesAgree) {
  // Every distinct summary phase 3 builds from fits the context cache served
  // equals the one built from freshly computed fits.
  SummaryList fresh = Run(CharlesEngine(options_));
  ASSERT_FALSE(fresh.summaries.empty());

  EngineContextOptions context_options;
  context_options.num_threads = 1;
  EngineContext context(context_options);
  CharlesEngine engine(options_, &context);
  SummaryList cold = Run(engine);
  const size_t cache_size = context.leaf_cache_entries();
  // The cold run fits each (leaf, T) slot once and publishes every fit.
  EXPECT_EQ(cold.leaf_fits_computed, fresh.leaf_fits_computed);
  EXPECT_EQ(static_cast<size_t>(cold.leaf_fits_computed), cache_size);

  // The second run must be served entirely by the cache (same fits, same
  // result).
  SummaryList warm = Run(engine);
  EXPECT_EQ(warm.leaf_fits_computed, 0);
  EXPECT_EQ(warm.leaf_fits_reused, cold.leaf_fits_computed + cold.leaf_fits_reused);
  EXPECT_EQ(context.leaf_cache_entries(), cache_size);

  ExpectSameSummaries(fresh, cold);
  ExpectSameSummaries(fresh, warm);
}

TEST(ReadabilityBudgetTest, HugeSummariesLoseInterpretability) {
  CharlesOptions options;
  options.target_attribute = "bonus";
  options.key_columns = {"name"};
  int64_t n = 100;
  std::vector<double> y(static_cast<size_t>(n), 1.0);
  Scorer scorer(options, y, y);

  auto summary_with_cts = [&](int count) {
    std::vector<ConditionalTransform> cts;
    for (int i = 0; i < count; ++i) {
      ConditionalTransform ct;
      ct.condition = MakeColumnCompare("name", CompareOp::kEq,
                                       Value("p" + std::to_string(i)));
      ct.transform = LinearTransform::NoChange("bonus");
      ct.rows = RowSet({i});
      ct.coverage = 1.0 / static_cast<double>(n);
      cts.push_back(std::move(ct));
    }
    return ChangeSummary(std::move(cts), "bonus");
  };
  double at_10 = scorer.InterpretabilityOnly(summary_with_cts(10)).interpretability;
  double at_100 = scorer.InterpretabilityOnly(summary_with_cts(100)).interpretability;
  // Beyond the ~10-CT budget interpretability must fall off sharply, not
  // saturate at the per-CT simplicity floor.
  EXPECT_LT(at_100, at_10 * 0.2);
}

TEST(MaxPartitionsTest, CapBoundsPhase3) {
  Table source = MakeExample1Source().ValueOrDie();
  Table target = MakeExample1Target().ValueOrDie();
  CharlesOptions options;
  options.target_attribute = "bonus";
  options.key_columns = {"name"};
  options.max_partitions = 3;
  SummaryList result = SummarizeChanges(source, target, options).ValueOrDie();
  EXPECT_LE(result.partitions, 3);
  EXPECT_FALSE(result.summaries.empty());
}

TEST(PhaseTimingsTest, Populated) {
  Table source = MakeExample1Source().ValueOrDie();
  Table target = MakeExample1Target().ValueOrDie();
  CharlesOptions options;
  options.target_attribute = "bonus";
  options.key_columns = {"name"};
  SummaryList result = SummarizeChanges(source, target, options).ValueOrDie();
  EXPECT_GE(result.clustering_seconds, 0.0);
  EXPECT_GE(result.induction_seconds, 0.0);
  EXPECT_GE(result.fitting_seconds, 0.0);
  EXPECT_GE(result.elapsed_seconds, result.clustering_seconds);
  EXPECT_GT(result.labelings, 0);
  EXPECT_GT(result.partitions, 0);
}

TEST(SnapZeroTest, FloatingPointResidueInterceptsSnapToZero) {
  // y = 1.02 x exactly; the "fitted" model carries an fp-noise intercept.
  Matrix x = Matrix::FromRows({{50000}, {60000}, {70000}, {80000}});
  std::vector<double> y;
  for (int64_t r = 0; r < x.rows(); ++r) y.push_back(1.02 * x.At(r, 0));
  LinearModel fitted;
  fitted.coefficients = {1.02};
  fitted.feature_names = {"salary"};
  fitted.intercept = 0.00008;
  NormalityOptions options;
  LinearModel snapped = SnapModel(fitted, x, y, options);
  EXPECT_DOUBLE_EQ(snapped.intercept, 0.0);
  EXPECT_DOUBLE_EQ(snapped.coefficients[0], 1.02);
}

}  // namespace
}  // namespace charles
