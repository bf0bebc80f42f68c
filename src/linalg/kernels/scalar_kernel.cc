#include <cmath>
#include <cstdint>
#include <vector>

#include "linalg/kernels/kernel.h"
#include "linalg/suffstats.h"

namespace charles {
namespace kernels {
namespace {

/// The reference block fold: the per-row gather/accumulate loop that every
/// accumulation entry point ran before the kernel seam existed, extracted
/// verbatim. Indexed and contiguous blocks share the one loop so their
/// arithmetic can never diverge — the distributed bit-identity contract
/// depends on the range variant replaying the indexed variant's operations
/// exactly. This kernel *defines* the correct bits; the vectorized kernel
/// must reproduce them (tests/kernel_parity_test.cc).
SufficientStats SuffStatsBlockScalar(
    const std::vector<const std::vector<double>*>& columns,
    const std::vector<double>& y, const int64_t* rows, int64_t base,
    int64_t count) {
  SufficientStats stats(static_cast<int64_t>(columns.size()));
  std::vector<double> features(columns.size());
  for (int64_t r = 0; r < count; ++r) {
    size_t row = static_cast<size_t>(rows != nullptr ? rows[r] : base + r);
    for (size_t f = 0; f < columns.size(); ++f) features[f] = (*columns[f])[row];
    stats.Accumulate(features.data(), y[row]);
  }
  return stats;
}

double AbsDiffSumScalar(const double* a, const double* b, int64_t count) {
  double sum = 0.0;
  for (int64_t i = 0; i < count; ++i) sum += std::abs(a[i] - b[i]);
  return sum;
}

double AbsSumScalar(const double* values, int64_t count) {
  double sum = 0.0;
  for (int64_t i = 0; i < count; ++i) sum += std::abs(values[i]);
  return sum;
}

/// Score fold: AbsDiffSumScalar's exact sum chain, with the within-tolerance
/// tally taken from the same per-row |error| before it joins the sum.
void ScoreDiffSumScalar(const double* a, const double* b, int64_t count,
                        double tolerance, double* abs_sum, int64_t* exact) {
  double sum = 0.0;
  int64_t within = 0;
  for (int64_t i = 0; i < count; ++i) {
    const double err = std::abs(a[i] - b[i]);
    sum += err;
    if (err <= tolerance) ++within;
  }
  *abs_sum = sum;
  *exact = within;
}

/// Probe score: ŷ = intercept + Σ_f c_f·x_f accumulated left-to-right
/// (LinearModel::PredictRow's order) and Σ|y − ŷ| in row order, tallying the
/// within-tolerance count from the same per-row error.
void ProbeScoreSumScalar(double intercept, const double* coefficients,
                         const std::vector<const std::vector<double>*>& columns,
                         const std::vector<double>& y, const int64_t* rows,
                         int64_t count, double tolerance, double* abs_sum,
                         int64_t* exact) {
  double sum = 0.0;
  int64_t within = 0;
  for (int64_t i = 0; i < count; ++i) {
    size_t row = static_cast<size_t>(rows[i]);
    double y_hat = intercept;
    for (size_t f = 0; f < columns.size(); ++f) {
      y_hat += coefficients[f] * (*columns[f])[row];
    }
    const double err = std::abs(y[row] - y_hat);
    sum += err;
    if (err <= tolerance) ++within;
  }
  *abs_sum = sum;
  *exact = within;
}

void GatherScalar(const double* src, const int64_t* rows, int64_t count,
                  double* dst, int64_t dst_stride) {
  for (int64_t i = 0; i < count; ++i) {
    dst[i * dst_stride] = src[rows[i]];
  }
}

constexpr Kernel kScalarKernel = {
    "scalar",     SuffStatsBlockScalar, AbsDiffSumScalar,   AbsSumScalar,
    GatherScalar, ScoreDiffSumScalar,   ProbeScoreSumScalar,
};

}  // namespace

const Kernel& ScalarKernel() { return kScalarKernel; }

}  // namespace kernels
}  // namespace charles
