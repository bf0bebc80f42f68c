#ifndef CHARLES_LINALG_ERROR_PARTIALS_H_
#define CHARLES_LINALG_ERROR_PARTIALS_H_

/// \file
/// \brief Exact L1-error partials, beside SufficientStats.
///
/// OLS moments pin a fit's r²/rmse down exactly but can only *estimate* its
/// L1 error (SufficientStats::Solution::mae_estimate is the Gaussian
/// rmse·sqrt(2/π) approximation). The exact mean absolute error of a
/// candidate transformation needs Σ|y − ŷ| over its rows — a row scan that,
/// before this accumulator, only the central process could perform.
///
/// ErrorPartials is the distributable form of that scan: (Σ|y − ŷ|, n)
/// accumulated per canonical row block and folded in ascending block order —
/// the same decomposition-invariant recipe AccumulateRowBlocks uses for
/// moments (see linalg/suffstats.h). Any executor that owns whole blocks
/// produces the identical per-block partials, and the identical fold, so a
/// coordinator merging shard partials computes the *bit-identical* MAE a
/// single central scan would have — float addition's non-associativity never
/// shows, because every decomposition replays the same additions in the same
/// order.
///
/// This is the evaluator behind FitLeaf's exact leaf MAE and SnapModel's
/// accuracy baseline on every engine run. Shards never
/// ship ErrorPartials themselves: the kScorePartials task replays the same Σ
/// chain (linalg/score_partials.h), and ScorePartials::error() projects it
/// back onto this type.

#include <cstdint>
#include <vector>

namespace charles {

namespace kernels {
struct Kernel;
}  // namespace kernels

/// \brief Accumulated L1-error partials: Σ|y − ŷ| and the row count.
///
/// Accumulation order is the caller's contract (float addition is not
/// associative); the canonical block fold below is what makes shard-merged
/// partials bit-identical to a central scan.
struct ErrorPartials {
  double abs_error_sum = 0.0;
  int64_t n = 0;

  /// Folds one observation in.
  void Accumulate(double y, double y_hat);

  /// Adds `other`'s partials into this (the partials of the union of two
  /// disjoint row sets). Exact under a fixed merge order.
  void Merge(const ErrorPartials& other);

  /// Mean absolute error of the accumulated rows (0 before any row).
  double mae() const {
    return n > 0 ? abs_error_sum / static_cast<double>(n) : 0.0;
  }

  /// Exact representation equality (every byte): the comparator of the
  /// kernel-parity and score-projection tests.
  bool BitIdenticalTo(const ErrorPartials& other) const;
};

/// \name Canonical block-structured L1 accumulation
///
/// The positional-array entry points of the canonical computation: rows are
/// grouped into the run's fixed blocks by *global* row index, each block's
/// |errors| are summed in row order into a fresh partial, and the partials
/// are folded left-to-right with Merge. `rows` must be ascending;
/// `block_rows` >= 1. `values` arrays are positional — values[i] belongs to
/// global row rows[i] — matching how the engine holds leaf-aligned
/// predictions.
/// @{

/// Canonical fold of Σ| a[i] − b[i] | (e.g. a = observed y, b = predictions).
/// Per-block sums dispatch through the process-wide active kernel
/// (linalg/kernels/kernel.h); every kernel produces the same bits.
ErrorPartials AccumulateAbsDiffBlocks(const std::vector<double>& a,
                                      const std::vector<double>& b,
                                      const std::vector<int64_t>& rows,
                                      int64_t block_rows);

/// Canonical fold of Σ| values[i] | (e.g. precomputed residuals).
ErrorPartials AccumulateAbsBlocks(const std::vector<double>& values,
                                  const std::vector<int64_t>& rows,
                                  int64_t block_rows);

/// \name Kernel-explicit variants (differential testing and benches).
/// @{
ErrorPartials AccumulateAbsDiffBlocks(const kernels::Kernel& kernel,
                                      const std::vector<double>& a,
                                      const std::vector<double>& b,
                                      const std::vector<int64_t>& rows,
                                      int64_t block_rows);
ErrorPartials AccumulateAbsBlocks(const kernels::Kernel& kernel,
                                  const std::vector<double>& values,
                                  const std::vector<int64_t>& rows,
                                  int64_t block_rows);
/// @}

/// @}

}  // namespace charles

#endif  // CHARLES_LINALG_ERROR_PARTIALS_H_
