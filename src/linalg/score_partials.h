#ifndef CHARLES_LINALG_SCORE_PARTIALS_H_
#define CHARLES_LINALG_SCORE_PARTIALS_H_

/// \file
/// \brief Exact accuracy partials: the block-folded form of Scorer's scan.
///
/// The ChARLES accuracy term blends two per-row reductions over a candidate
/// summary's predictions: the L1 distance Σ|ŷ − y_new| (the explained-change
/// numerator) and the exactness count #{i : |ŷᵢ − y_newᵢ| ≤ τ} for the
/// run's exact tolerance τ. Scorer::Accuracy computes both as one central
/// n-row scan over a materialized run-wide ŷ vector.
///
/// ScorePartials is that scan in partial form: (Σ|ŷ − y_new|, exact count,
/// n) accumulated per canonical row block and folded in ascending block
/// order — the same decomposition-invariant recipe AccumulateRowBlocks uses
/// for moments (linalg/suffstats.h). The exact count is an integer tally
/// over the same |errors|, which makes it order-free — equal under *every*
/// fold order, not merely the canonical one. Merging per-leaf partials in
/// leaf order yields the bit-identical accuracy a central scan of the same
/// fold would have computed (Scorer::AccuracyFromPartials).
///
/// This is the one L1 currency of the engine: FitLeaf folds each leaf's
/// score with it, SnapModel takes its accuracy-guard baseline from the L1
/// component, and BuildSummary scores a candidate without materializing ŷ.

#include <cstdint>
#include <vector>

namespace charles {

/// \brief Accumulated accuracy partials: Σ|y − ŷ|, the within-tolerance
/// count, and the row count.
///
/// Accumulation order of the sum is the caller's contract (float addition is
/// not associative); the canonical block fold below is what makes
/// shard-merged partials bit-identical to a central scan. The exact count
/// and n are integers, exact under any order.
struct ScorePartials {
  double abs_error_sum = 0.0;
  int64_t exact_count = 0;
  int64_t n = 0;

  /// Folds one observation in: |y − ŷ| joins the sum, and the exact count
  /// grows when the error is within `tolerance`.
  void Accumulate(double y, double y_hat, double tolerance);

  /// Adds `other`'s partials into this (the partials of the union of two
  /// disjoint row sets). Exact under a fixed merge order.
  void Merge(const ScorePartials& other);

  /// Mean absolute error of the accumulated rows (0 before any row).
  double mae() const {
    return n > 0 ? abs_error_sum / static_cast<double>(n) : 0.0;
  }

  /// Fraction of accumulated rows within tolerance (0 before any row).
  double exact_fraction() const {
    return n > 0 ? static_cast<double>(exact_count) / static_cast<double>(n)
                 : 0.0;
  }

  /// Exact representation equality (every byte): the comparator of the
  /// fold-reference and parity tests.
  bool BitIdenticalTo(const ScorePartials& other) const;
};

/// \name Canonical block-structured accuracy accumulation
///
/// The positional-array entry point of the canonical computation: rows are
/// grouped into the run's fixed blocks by *global* row index, each block's
/// |errors| are summed (and tallied against `tolerance`) in row order into a
/// fresh partial, and the partials are folded left-to-right with Merge.
/// `rows` must be ascending; `block_rows` >= 1. `a`/`b` are positional —
/// a[i]/b[i] belong to global row rows[i] — matching how the engine holds
/// leaf-aligned predictions.
/// @{

/// Canonical fold of (Σ|a[i] − b[i]|, #within tolerance) — e.g. a = observed
/// y_new, b = predictions.
ScorePartials AccumulateScoreDiffBlocks(const std::vector<double>& a,
                                        const std::vector<double>& b,
                                        const std::vector<int64_t>& rows,
                                        int64_t block_rows, double tolerance);

/// @}

}  // namespace charles

#endif  // CHARLES_LINALG_SCORE_PARTIALS_H_
