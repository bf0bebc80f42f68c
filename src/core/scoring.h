#ifndef CHARLES_CORE_SCORING_H_
#define CHARLES_CORE_SCORING_H_

#include <vector>

#include "core/options.h"
#include "core/summary.h"
#include "linalg/score_partials.h"

namespace charles {

/// \brief Computes Score(S) = α · Accuracy(S) + (1 − α) · Interpretability(S).
///
/// **Accuracy** blends two [0, 1] views of the paper's "inverse L1 distance
/// between D̂s(aᵢ) and Dt(aᵢ)":
///
///   L1-explained  = clamp(1 − L1(ŷ, y_new) / L1(y_old, y_new), 0, 1)
///   exactness     = |{i : |ŷᵢ − y_newᵢ| ≤ band}| / n,
///                   band = max(numeric_tolerance, 0.1% of mean |y_new|)
///   Accuracy(S)   = ½ · L1-explained + ½ · exactness
///
/// The exactness term encodes the paper's emphasis that {R1, R2, R3}
/// "accurately explains the change trend" while the coarse R4 "does not
/// accurately capture the change": a summary whose rules are *right* for the
/// rows they govern outranks one that is merely close on average. On noisy
/// data exactness is uniformly ≈ 0 and ranking degenerates gracefully to the
/// L1 view. The do-nothing summary scores 0 when everything changed; with
/// identical snapshots (nothing to explain) a summary that leaves the data
/// unchanged scores 1.
///
/// **Interpretability** is the weighted mean of five [0, 1] sub-scores, one
/// per §2 desideratum:
///  - summary_size:        1 / (1 + 0.25 · (#CTs − 1))
///  - condition_simplicity: mean over CTs of 1 / (1 + 0.5 · #descriptors)
///  - transform_simplicity: mean over CTs of 1 / (1 + 0.5 · #variables)
///  - coverage:            covered rows / n — penalizes unexplained rows
///  - normality:           mean over CTs of the average of condition and
///                         transformation constant-normality
///
/// Summaries larger than ~10 CTs additionally scale the blended
/// interpretability by 10/#CTs: beyond that budget a summary degenerates
/// into the exhaustive change list the paper's introduction rejects.
class Scorer {
 public:
  /// y_old / y_new are the aligned target vectors (pair order).
  Scorer(const CharlesOptions& options, std::vector<double> y_old,
         std::vector<double> y_new);

  /// Scores a summary given the predictions it makes on the source rows
  /// (`y_hat`, aligned with y_old/y_new). The row-scan path: kept for
  /// external callers and baselines; the engine's hot loop scores from
  /// partials instead (ScoreFromPartials).
  ScoreBreakdown Score(const ChangeSummary& summary,
                       const std::vector<double>& y_hat) const;

  /// Scores a summary from accumulated accuracy partials — the row-free
  /// path. `partials` must cover every aligned row exactly once (n equal to
  /// the target length) and must have been folded with exact_tolerance().
  ScoreBreakdown ScoreFromPartials(const ChangeSummary& summary,
                                   const ScorePartials& partials) const;

  /// Convenience: applies the summary to `source` and scores the result.
  Result<ScoreBreakdown> ApplyAndScore(const ChangeSummary& summary,
                                       const Table& source) const;

  /// The accuracy component alone (used by baselines and ablations).
  double Accuracy(const std::vector<double>& y_hat) const;

  /// The accuracy component from partials: the identical L1-explained /
  /// exactness blend, fed by (Σ|ŷ − y_new|, exact count, n) instead of a
  /// fresh row scan. Given partials whose sum replays the row scan's addend
  /// chain, the result is bit-identical to Accuracy().
  double AccuracyFromPartials(const ScorePartials& partials) const;

  /// The interpretability component alone.
  ScoreBreakdown InterpretabilityOnly(const ChangeSummary& summary) const;

  /// The exactness band: max(numeric_tolerance, 0.1% of mean |y_new|) —
  /// what every ScorePartials fold feeding this scorer must use.
  double exact_tolerance() const { return exact_tolerance_; }

  /// Aligned row count (the n every covering partials fold must reach).
  int64_t num_rows() const { return static_cast<int64_t>(y_new_.size()); }

 private:
  // Held by value: a Scorer must stay valid past the options object it was
  // built from (callers often pass temporaries).
  CharlesOptions options_;
  std::vector<double> y_old_;
  std::vector<double> y_new_;
  double baseline_l1_ = 0.0;
  double target_scale_ = 1.0;
  double exact_tolerance_ = 0.0;
};

}  // namespace charles

#endif  // CHARLES_CORE_SCORING_H_
