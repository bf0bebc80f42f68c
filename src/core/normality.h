#ifndef CHARLES_CORE_NORMALITY_H_
#define CHARLES_CORE_NORMALITY_H_

#include <cstdint>
#include <vector>

#include "core/options.h"
#include "expr/expr.h"
#include "linalg/error_partials.h"
#include "linalg/matrix.h"
#include "ml/linear_regression.h"

namespace charles {

/// \brief How "normal" (human-friendly) a numeric constant is, in [0, 1].
///
/// The paper's examples anchor the scale: 5% (0.05) is more normal than
/// 2.479%, and "Age > 25" more normal than "Age > 23.796". The score decays
/// with the number of significant decimal digits the constant needs:
/// one digit (5, 0.05, 1000) → 1.0; each extra digit costs 0.2, floored at 0.
/// Zero is perfectly normal; NaN and ±inf score 0.
///
/// The decimal exponent comes from one floor(log10(|value|)); every power of
/// ten after that is read from a table that was filled once, at run time,
/// by the same std::pow(10.0, k) call it replaces. Each lookup therefore
/// returns the bits the pow call returned, and the score is bit-identical
/// to evaluating pow per digit.
double NumberNormality(double value);

/// \brief The "nicest" value within `tolerance` (relative) of `value`.
///
/// Scans round lattices (1, 2, 2.5, 5 × powers of ten) from coarse to fine
/// and returns the nicest candidate within the allowed shift; returns
/// `value` unchanged when nothing nicer is close enough, and for NaN/±inf.
double SnapNumber(double value, double tolerance);

/// All nicer-than-`value` lattice candidates within `tolerance` (relative),
/// ordered nicest-first (ties towards the closer candidate). SnapModel walks
/// this list per constant under its accuracy guard. Lattice steps come from
/// NumberNormality's power-of-ten table. The normality of `value` and of
/// each survivor is computed once and the (candidate, normality) pairs are
/// sorted on those keys: every comparison returns what recomputing the keys
/// would, so std::sort yields the same order. Empty for zero, NaN and ±inf.
std::vector<double> SnapCandidates(double value, double tolerance);

/// \brief Mean normality of a fitted model's non-trivial constants.
///
/// Averages NumberNormality over non-zero coefficients and a non-zero
/// intercept; a bare identity/empty model scores 1.0.
double ModelNormality(const LinearModel& model);

/// \brief Mean normality of the numeric literals in a condition.
///
/// Conditions without numeric literals (pure categorical equalities, TRUE)
/// score 1.0.
double ConditionNormality(const Expr& condition);

/// \brief How SnapModel evaluates its accuracy-guard baseline exactly.
///
/// Without a spec, the baseline MAE is a plain serial Σ|residual| / n — the
/// historical (row-order-dependent) computation of the QR path. With a spec,
/// the baseline comes from the canonical block fold of
/// linalg/error_partials.h instead, which makes the snap guard
/// *decomposition-invariant*: a coordinator that merged the same partials
/// from row-range shards supplies `baseline` and gets the bit-identical
/// guard a central scan would have computed.
struct SnapErrorSpec {
  /// Pre-merged exact L1 partials of `model` on (x, y) — e.g. the L1
  /// projection of a distributed kScorePartials rollup. When null,
  /// SnapModel folds the baseline itself from `rows`/`block_rows`
  /// (bit-identical to the merged form).
  const ErrorPartials* baseline = nullptr;
  /// Ascending global row indices of the partition (size = y.size()) and the
  /// run's canonical block size; both required.
  const std::vector<int64_t>* rows = nullptr;
  int64_t block_rows = 0;

  bool valid() const { return rows != nullptr && block_rows >= 1; }
};

/// \brief Snaps a model's coefficients to nice values, guarded by accuracy.
///
/// Each coefficient (and the intercept) is moved to the nicest lattice value
/// within options.max_relative_coefficient_shift. The snapped model is kept
/// only if its mean absolute error on (x, y) grows by at most
/// options.max_relative_accuracy_loss × mean(|y|); otherwise the original is
/// returned. Diagnostics (r2/mae/rmse) are recomputed either way, in one pass
/// over the final predictions. A constant's SnapCandidates list is built once
/// per value it takes, however many fixpoint passes revisit it.
/// `error_spec` (optional) selects the exact-L1 baseline evaluation; see
/// SnapErrorSpec. `predictions` (optional) receives the returned model's
/// PredictBatch(x), bit for bit — also when snapping is disabled — so a
/// caller needs no second prediction pass.
LinearModel SnapModel(const LinearModel& model, const Matrix& x,
                      const std::vector<double>& y, const NormalityOptions& options,
                      const SnapErrorSpec* error_spec = nullptr,
                      std::vector<double>* predictions = nullptr);

}  // namespace charles

#endif  // CHARLES_CORE_NORMALITY_H_
