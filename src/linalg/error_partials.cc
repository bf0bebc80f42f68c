#include "linalg/error_partials.h"

#include <cmath>
#include <cstring>

#include "linalg/suffstats.h"

namespace charles {

void ErrorPartials::Accumulate(double y, double y_hat) {
  abs_error_sum += std::abs(y - y_hat);
  ++n;
}

void ErrorPartials::Merge(const ErrorPartials& other) {
  abs_error_sum += other.abs_error_sum;
  n += other.n;
}

bool ErrorPartials::BitIdenticalTo(const ErrorPartials& other) const {
  return n == other.n &&
         std::memcmp(&abs_error_sum, &other.abs_error_sum, sizeof(double)) == 0;
}

namespace {

/// One block partial of Σ|a[i] − b[i]| over positional arrays, summed in
/// index order from zero.
double AbsDiffSum(const double* a, const double* b, int64_t count) {
  double sum = 0.0;
  for (int64_t i = 0; i < count; ++i) sum += std::abs(a[i] - b[i]);
  return sum;
}

/// One block partial of Σ|values[i]|, summed in index order from zero.
double AbsSum(const double* values, int64_t count) {
  double sum = 0.0;
  for (int64_t i = 0; i < count; ++i) sum += std::abs(values[i]);
  return sum;
}

/// The shared fold: per-block partials (each summed in index order from
/// zero) merged left-to-right — the decomposition-invariant computation
/// every executor of a plan replays. `block_sum(base, count)` must return
/// the row-order sum of the block's positional slice [base, base + count).
template <typename BlockSum>
ErrorPartials FoldBlocks(const std::vector<int64_t>& rows, int64_t block_rows,
                         BlockSum&& block_sum) {
  ErrorPartials total;
  const int64_t* data = rows.data();
  ForEachRowBlock(data, static_cast<int64_t>(rows.size()), block_rows,
                  [&](int64_t /*block*/, const int64_t* block_rows_ptr,
                      int64_t count) {
                    ErrorPartials block_partial;
                    int64_t base = block_rows_ptr - data;
                    block_partial.abs_error_sum = block_sum(base, count);
                    block_partial.n = count;
                    total.Merge(block_partial);
                  });
  return total;
}

}  // namespace

ErrorPartials AccumulateAbsDiffBlocks(const std::vector<double>& a,
                                      const std::vector<double>& b,
                                      const std::vector<int64_t>& rows,
                                      int64_t block_rows) {
  return FoldBlocks(rows, block_rows, [&](int64_t base, int64_t count) {
    return AbsDiffSum(a.data() + base, b.data() + base, count);
  });
}

ErrorPartials AccumulateAbsBlocks(const std::vector<double>& values,
                                  const std::vector<int64_t>& rows,
                                  int64_t block_rows) {
  return FoldBlocks(rows, block_rows, [&](int64_t base, int64_t count) {
    return AbsSum(values.data() + base, count);
  });
}

}  // namespace charles
