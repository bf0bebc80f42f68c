#include "linalg/score_partials.h"

#include <cmath>
#include <cstring>

#include "linalg/suffstats.h"

namespace charles {

void ScorePartials::Accumulate(double y, double y_hat, double tolerance) {
  const double err = std::abs(y - y_hat);
  abs_error_sum += err;
  if (err <= tolerance) ++exact_count;
  ++n;
}

void ScorePartials::Merge(const ScorePartials& other) {
  abs_error_sum += other.abs_error_sum;
  exact_count += other.exact_count;
  n += other.n;
}

bool ScorePartials::BitIdenticalTo(const ScorePartials& other) const {
  return n == other.n && exact_count == other.exact_count &&
         std::memcmp(&abs_error_sum, &other.abs_error_sum, sizeof(double)) == 0;
}

namespace {

/// One block partial of (Σ|a[i] − b[i]|, #{i : |a[i] − b[i]| ≤ tolerance})
/// over positional arrays, summed in index order from zero, with the
/// within-tolerance tally taken from the same per-row |error| before it
/// joins the sum.
void ScoreDiffSum(const double* a, const double* b, int64_t count,
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

}  // namespace

// Per-block partials, each produced in row order, merged left-to-right — the
// same decomposition-invariant shape as AccumulateRowBlocks, carrying the
// exact count alongside the sum.
ScorePartials AccumulateScoreDiffBlocks(const std::vector<double>& a,
                                        const std::vector<double>& b,
                                        const std::vector<int64_t>& rows,
                                        int64_t block_rows, double tolerance) {
  ScorePartials total;
  const int64_t* data = rows.data();
  ForEachRowBlock(data, static_cast<int64_t>(rows.size()), block_rows,
                  [&](int64_t /*block*/, const int64_t* block_rows_ptr,
                      int64_t count) {
                    ScorePartials block_partial;
                    int64_t base = block_rows_ptr - data;
                    ScoreDiffSum(a.data() + base, b.data() + base, count,
                                 tolerance, &block_partial.abs_error_sum,
                                 &block_partial.exact_count);
                    block_partial.n = count;
                    total.Merge(block_partial);
                  });
  return total;
}

}  // namespace charles
