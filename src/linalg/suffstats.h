#ifndef CHARLES_LINALG_SUFFSTATS_H_
#define CHARLES_LINALG_SUFFSTATS_H_

/// \file
/// \brief Sufficient statistics for ordinary least squares.
///
/// An OLS fit of y on features x₁..x_p needs only the moments
/// (XᵀX, Xᵀy, yᵀy, n) of the *augmented* design z = (1, x₁..x_p) — not the
/// rows themselves. SufficientStats accumulates those moments in one scan
/// and answers any number of fits afterwards at O(p³), independent of row
/// count. Three properties make it the engine's leaf-fit workhorse:
///
///  - **Additivity.** Stats of a union of disjoint row sets are the sums of
///    the per-set stats (Merge), so child-partition stats roll up into
///    parent- or table-level fits without rescanning rows.
///  - **Marginalization.** The stats of any feature *subset* are a
///    principal submatrix of the full stats (Project), so one scan over the
///    full transformation shortlist serves every candidate subset T — only
///    the p×p solve differs per T.
///  - **Determinism.** Accumulate is a fold over rows in the caller's order;
///    replaying serial row order yields bit-identical moments on any thread,
///    which is what keeps parallel engine output bit-identical to serial.
///
/// Internally the moments are accumulated relative to a **shift** — the
/// first observation's feature/response values. Raw moments lose roughly
/// (mean/spread)² digits to cancellation when the solve re-centers them
/// (Σx² − n·x̄² with mean ≫ spread); shifting by a sample point bounds the
/// re-centering cancellation by the data's own spread, which keeps the
/// solved coefficients within a few ULPs of the row-level QR answer on
/// well-conditioned data. The shift is pure representation: Merge translates
/// between shifts exactly, and Solve's output is shift-independent up to
/// those last ULPs.
///
/// SolveOls solves the centered normal equations by Cholesky and reports
/// failure — rather than a noisy answer — on ill-conditioned systems, so
/// callers can fall back to the row-level Householder QR path.

#include <cstdint>
#include <vector>

#include "common/result.h"

namespace charles {

/// \brief Accumulated OLS moments (XᵀX, Xᵀy, yᵀy, n) over the augmented
/// design z = (1, x₁..x_p), stored relative to a first-observation shift.
class SufficientStats {
 public:
  /// Zero-feature stats (intercept-only); establishes the moment-buffer
  /// invariant so Accumulate on a default-constructed instance is safe.
  SufficientStats() : SufficientStats(0) {}

  /// Stats over `num_features` features (the intercept column is implicit).
  explicit SufficientStats(int64_t num_features);

  /// Folds one observation in: `x` points at num_features() doubles, `y` is
  /// the response. The first observation becomes the shift point.
  /// Accumulation order is the caller's contract — replay rows in a fixed
  /// order to get bit-identical moments.
  void Accumulate(const double* x, double y);

  /// Adds `other`'s moments into this (the stats of the union of two
  /// disjoint row sets), translating between shift points exactly. Fails on
  /// a feature-count mismatch.
  Status Merge(const SufficientStats& other);

  /// Stats restricted to the features at `subset` (indices into
  /// 0..num_features()-1, in the order given). The result is exactly what
  /// accumulating only those features would have produced.
  SufficientStats Project(const std::vector<int>& subset) const;

  int64_t num_features() const { return p_; }
  int64_t n() const { return n_; }

  /// \name Derived (shift-independent) descriptive moments.
  /// @{
  /// Mean of feature f over the accumulated rows (0 before any row).
  double MeanX(int64_t f) const;
  /// Mean response.
  double MeanY() const;
  /// Centered cross-moment S_ij = Σ (x_i − x̄_i)(x_j − x̄_j).
  double Sxx(int64_t i, int64_t j) const;
  /// Centered feature/response moment S_iy = Σ (x_i − x̄_i)(y − ȳ).
  double Sxy(int64_t i) const;
  /// Centered response scatter S_yy = Σ (y − ȳ)² (clamped at 0).
  double Syy() const;
  /// @}

  /// \brief One solved OLS system, with fit diagnostics derived from the
  /// moments alone (no pass over rows).
  ///
  /// `r2` and `rmse` are exact (both are functions of the second moments).
  /// `mae_estimate` is the Gaussian-residual approximation
  /// rmse · sqrt(2/π) — the moments cannot determine the exact L1 error;
  /// callers that need it recompute it on their prediction pass.
  struct Solution {
    double intercept = 0.0;
    std::vector<double> coefficients;  ///< One per requested feature.
    double r2 = 0.0;
    double rmse = 0.0;
    double mae_estimate = 0.0;
  };

  /// \brief OLS fit of y on the features at `subset` (empty = intercept
  /// only), from the moments alone.
  ///
  /// Solves the centered p×p normal equations by Cholesky. Fails with
  /// InvalidArgument when the system is underdetermined (n < |subset| + 1)
  /// or ill-conditioned (a Cholesky pivot collapses relative to its
  /// diagonal) — callers should treat failure as "use the row-level QR
  /// path", which either solves the system more stably or correctly reports
  /// rank deficiency.
  Result<Solution> SolveOls(const std::vector<int>& subset) const;

  /// SolveOls over every feature, in order.
  Result<Solution> SolveOls() const;

  /// The first column whose moments are not finite — a feature index in
  /// [0, num_features()), or num_features() for the response — or -1 when
  /// every moment is finite. Finite inputs can still overflow a sum of
  /// squares (two ±1e308 values do); callers that fold finite cells use
  /// this to reject such data instead of solving on inf.
  int64_t FirstNonFiniteColumn() const;

  /// \name Wire format (distributed shard execution).
  ///
  /// Shard workers ship per-leaf moments to the coordinator as raw bytes.
  /// Doubles are copied bit-for-bit in native byte order — the format is a
  /// same-architecture pipe/socket protocol, not an archival format — so a
  /// round trip reproduces the moments exactly and the coordinator's merge
  /// is bit-identical to an in-process one.
  /// @{
  /// Appends the stats' wire encoding to `out`.
  void SerializeTo(std::string* out) const;
  /// Reads one stats encoding from `*cursor`, advancing it past the bytes
  /// consumed. Fails (without advancing past `end`) on truncated or
  /// malformed input.
  static Result<SufficientStats> Deserialize(const unsigned char** cursor,
                                             const unsigned char* end);
  /// Exact representation equality — shift point, counts, and every moment
  /// byte-for-byte. The comparator of round-trip and shard-parity tests
  /// (operator== would be misleading: two stats of the same rows in a
  /// different order are semantically equal but not bit-identical).
  bool BitIdenticalTo(const SufficientStats& other) const;
  /// @}

 private:
  int64_t p_ = 0;
  int64_t n_ = 0;
  /// Shift point: the first accumulated observation (features, response).
  std::vector<double> x_shift_;
  double y_shift_ = 0.0;
  /// Augmented Gram ZᵀZ of the shifted design z = (1, x − x_shift),
  /// row-major (p+1)², kept fully mirrored.
  std::vector<double> gram_;
  /// Zᵀ(y − y_shift), length p+1.
  std::vector<double> xty_;
  /// Σ (y − y_shift)².
  double yty_ = 0.0;
};

/// \name Canonical block-structured accumulation
///
/// The distributed determinism contract (docs/distributed.md) needs leaf
/// moments that are *decomposition-invariant*: the same bits whether one
/// process scans every row or N shards each scan a row range. A single
/// sequential fold cannot be split (float addition is not associative), so
/// the canonical computation is block-structured instead:
///
///  1. rows are grouped into fixed *blocks* by global row index
///     (block b = rows [b·B, (b+1)·B) for a run-wide block size B);
///  2. each block's rows are accumulated into a fresh partial, in row order;
///  3. the per-block partials are folded left-to-right with Merge.
///
/// Every step is deterministic and block-local, so any executor that owns
/// whole blocks reproduces the identical partials, and the identical fold —
/// the shard planner only ever cuts at block boundaries. A leaf spanning a
/// single block degenerates to exactly the plain sequential scan (Merge
/// into empty stats is a copy).
/// @{

/// Calls `fn(block, rows + lo, count)` for each maximal run of `rows`
/// (ascending row indices) falling in one block of size `block_rows`.
template <typename Fn>
void ForEachRowBlock(const int64_t* rows, int64_t count, int64_t block_rows,
                     Fn&& fn) {
  int64_t lo = 0;
  while (lo < count) {
    int64_t block = rows[lo] / block_rows;
    int64_t hi = lo + 1;
    while (hi < count && rows[hi] / block_rows == block) ++hi;
    fn(block, rows + lo, hi - lo);
    lo = hi;
  }
}

/// One partial: accumulates `count` rows (gathering one value per column, in
/// column order) into fresh stats. The shared primitive of engine-side and
/// shard-side accumulation — both must produce byte-identical partials.
SufficientStats AccumulateRows(
    const std::vector<const std::vector<double>*>& columns,
    const std::vector<double>& y, const int64_t* rows, int64_t count);

/// The canonical computation: per-block partials folded with Merge, as
/// described above. `rows` must be ascending; `block_rows` >= 1.
SufficientStats AccumulateRowBlocks(
    const std::vector<const std::vector<double>*>& columns,
    const std::vector<double>& y, const std::vector<int64_t>& rows,
    int64_t block_rows);

/// The canonical computation over the contiguous range [0, num_rows) — the
/// all-rows case, without materializing an identity index vector.
/// Bit-identical to AccumulateRowBlocks over {0, ..., num_rows − 1}.
SufficientStats AccumulateRangeBlocks(
    const std::vector<const std::vector<double>*>& columns,
    const std::vector<double>& y, int64_t num_rows, int64_t block_rows);

/// @}

}  // namespace charles

#endif  // CHARLES_LINALG_SUFFSTATS_H_
