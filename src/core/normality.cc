#include "core/normality.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/logging.h"
#include "core/normality_internal.h"
#include "linalg/stats.h"

namespace charles {

namespace {

using normality_internal::kMaxPowerOfTen;
using normality_internal::kMinPowerOfTen;
using PowerTable = std::array<double, kMaxPowerOfTen - kMinPowerOfTen + 1>;

/// 10^k for k in [kMinPowerOfTen, kMaxPowerOfTen], filled once at run time
/// by the very std::pow call each lookup replaces — glibc's pow is not
/// guaranteed correctly rounded, so a compile-time literal table could
/// disagree in the last bit. The volatile base keeps the compiler from
/// folding the calls with its own (correctly rounded) arithmetic.
const PowerTable& PowersOfTen() {
  static const PowerTable table = [] {
    PowerTable powers{};
    volatile double ten = 10.0;
    for (int k = kMinPowerOfTen; k <= kMaxPowerOfTen; ++k) {
      powers[static_cast<size_t>(k - kMinPowerOfTen)] = std::pow(ten, k);
    }
    return powers;
  }();
  return table;
}

/// Number of significant decimal digits needed to write finite `value`
/// exactly (up to 9 digits of precision; beyond that we call it 10).
int SignificantDigits(double value) {
  value = std::abs(value);
  if (value <= 1e-300) return 1;  // zero
  // Normalize into [1, 10).
  int exponent = normality_internal::DecimalExponent(value);
  double mantissa = value / normality_internal::PowerOfTen(exponent);
  for (int digits = 1; digits <= 9; ++digits) {
    double scaled = mantissa * normality_internal::PowerOfTen(digits - 1);
    if (std::abs(scaled - std::round(scaled)) < 1e-6 * std::max(1.0, scaled)) {
      return digits;
    }
  }
  return 10;
}

/// Fills r2/mae/rmse of `model` from its predictions on (x, y). One pass
/// over the rows feeds both residual sums, each in row order, so the bits
/// equal MeanAbsoluteError / RootMeanSquaredError and the serial Σe² of the
/// QR path: (ŷ − y)² and (y − ŷ)² are the same double, so the r² and RMSE
/// sums are one accumulator.
void RecomputeDiagnostics(LinearModel* model, const std::vector<double>& predicted,
                          const std::vector<double>& y) {
  double abs_sum = 0.0;
  double sq_sum = 0.0;
  for (size_t i = 0; i < y.size(); ++i) {
    double d = predicted[i] - y[i];
    abs_sum += std::abs(d);
    sq_sum += d * d;
  }
  const double n = static_cast<double>(y.size());
  model->mae = abs_sum / n;
  model->rmse = std::sqrt(sq_sum / n);
  double total_var = Variance(y);
  if (total_var <= 1e-300) {
    model->r2 = model->rmse <= 1e-9 ? 1.0 : 0.0;
  } else {
    model->r2 = 1.0 - (sq_sum / n) / total_var;
  }
}

}  // namespace

namespace normality_internal {

int DecimalExponent(double value) {
  return static_cast<int>(std::floor(std::log10(std::abs(value))));
}

double PowerOfTen(int k) {
  CHARLES_DCHECK(k >= kMinPowerOfTen && k <= kMaxPowerOfTen) << "10^" << k;
  return PowersOfTen()[static_cast<size_t>(k - kMinPowerOfTen)];
}

}  // namespace normality_internal

double NumberNormality(double value) {
  if (!std::isfinite(value)) return 0.0;
  int digits = SignificantDigits(value);
  double score = 1.0 - 0.2 * static_cast<double>(digits - 1);
  return score < 0.0 ? 0.0 : score;
}

std::vector<double> SnapCandidates(double value, double tolerance) {
  std::vector<double> candidates;
  if (std::abs(value) <= 1e-300 || !std::isfinite(value)) return candidates;
  double magnitude = std::abs(value);
  int exponent = normality_internal::DecimalExponent(magnitude);
  const double own_normality = NumberNormality(value);
  // Lattice steps scaled by descending powers of ten; chosen so common human
  // constants (25, 250, 0.05, 1000) are reachable. Each survivor carries its
  // normality, computed once, as its sort key.
  static const double kStepMantissas[] = {1.0, 0.5, 0.25, 0.2, 0.1};
  struct Keyed {
    double candidate;
    double normality;
  };
  Keyed keyed[5 * 5] = {};  // five exponents × five lattice steps
  size_t count = 0;
  for (int e = exponent + 1; e >= exponent - 3; --e) {
    double base = normality_internal::PowerOfTen(e);
    for (double mantissa : kStepMantissas) {
      double step = mantissa * base;
      double candidate = std::round(value / step) * step;
      if (candidate == 0.0) continue;
      if (std::abs(candidate - value) <= tolerance * magnitude) {
        double normality = NumberNormality(candidate);
        if (normality > own_normality) keyed[count++] = {candidate, normality};
      }
    }
  }
  // Nicest first; ties broken towards the closer candidate. Deduplicate.
  std::sort(keyed, keyed + count, [value](const Keyed& a, const Keyed& b) {
    if (a.normality != b.normality) return a.normality > b.normality;
    return std::abs(a.candidate - value) < std::abs(b.candidate - value);
  });
  candidates.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    if (i == 0 || keyed[i].candidate != keyed[i - 1].candidate) {
      candidates.push_back(keyed[i].candidate);
    }
  }
  return candidates;
}

double SnapNumber(double value, double tolerance) {
  std::vector<double> candidates = SnapCandidates(value, tolerance);
  return candidates.empty() ? value : candidates[0];
}

double ModelNormality(const LinearModel& model) {
  double total = 0.0;
  int count = 0;
  for (double c : model.coefficients) {
    if (std::abs(c) <= 1e-12) continue;
    total += NumberNormality(c);
    ++count;
  }
  if (std::abs(model.intercept) > 1e-9) {
    total += NumberNormality(model.intercept);
    ++count;
  }
  return count > 0 ? total / static_cast<double>(count) : 1.0;
}

double ConditionNormality(const Expr& condition) {
  std::vector<Value> literals;
  condition.CollectLiterals(&literals);
  double total = 0.0;
  int count = 0;
  for (const Value& v : literals) {
    if (!IsNumeric(v.kind())) continue;
    total += NumberNormality(v.AsDouble().ValueOrDie());
    ++count;
  }
  return count > 0 ? total / static_cast<double>(count) : 1.0;
}

LinearModel SnapModel(const LinearModel& model, const Matrix& x,
                      const std::vector<double>& y, const NormalityOptions& options,
                      const SnapErrorSpec* error_spec,
                      std::vector<double>* predictions) {
  if (!options.enable_snapping || y.empty()) {
    if (predictions != nullptr) *predictions = model.PredictBatch(x);
    return model;
  }

  size_t n = y.size();
  LinearModel snapped = model;

  // Residuals of the current snapped state, maintained incrementally: this
  // loop sits inside every leaf fit of the phase-3 sweep, and candidate
  // evaluation via full model re-prediction (one matrix pass plus an
  // allocation per candidate) used to dominate the fit. Perturbing one
  // constant by δ shifts row i's residual by exactly δ·x_ic (δ for the
  // intercept), so a candidate's MAE is a single allocation-free pass.
  std::vector<double> predicted = snapped.PredictBatch(x);
  std::vector<double> residuals(n);
  for (size_t i = 0; i < n; ++i) residuals[i] = y[i] - predicted[i];
  auto mae_of = [&](const std::vector<double>& r) {
    double total = 0.0;
    for (double e : r) total += std::abs(e);
    return total / static_cast<double>(n);
  };
  // Accuracy-guard baseline: shard-merged exact partials when supplied, the
  // equivalent canonical block fold when only the fold geometry is, and the
  // historical serial sum otherwise (see SnapErrorSpec).
  double baseline_mae;
  if (error_spec != nullptr && error_spec->baseline != nullptr) {
    baseline_mae = error_spec->baseline->mae();
  } else if (error_spec != nullptr && error_spec->valid()) {
    baseline_mae =
        AccumulateAbsBlocks(residuals, *error_spec->rows, error_spec->block_rows)
            .mae();
  } else {
    baseline_mae = mae_of(residuals);
  }

  // Accuracy guard: snapped models may lose at most this much MAE relative
  // to the target scale — except exact models, which must stay exact.
  double scale = 0.0;
  for (double v : y) scale += std::abs(v);
  scale /= static_cast<double>(n);
  double allowed_mae = baseline_mae + options.max_relative_accuracy_loss *
                                          std::max(scale, 1e-12);
  if (baseline_mae <= options.exactness_tolerance) {
    allowed_mae = options.exactness_tolerance;
  }

  // Greedy per-constant snapping, iterated to a fixpoint: for each
  // coefficient (then the intercept), try candidates from nicest to least
  // nice and keep the first that stays within the accuracy budget.
  // Evaluating per constant (rather than all-at-once) lets 1.0502 snap to
  // 1.05 even though the even-nicer 1.0 would wreck the fit; iterating lets
  // a slope snap unlock an intercept snap that was individually too costly.
  // `column` indexes the perturbed feature; -1 perturbs the intercept. Each
  // constant's candidate list (`lists`, intercept last) is built once per
  // value the constant takes: a later pass over an unchanged constant
  // reuses it.
  struct CandidateList {
    double value = 0.0;
    std::vector<double> candidates;
  };
  std::vector<CandidateList> lists(snapped.coefficients.size() + 1);
  bool changed = false;
  auto try_constant = [&](double* constant, int64_t column) -> bool {
    double original = *constant;
    if (original == 0.0) return false;
    // Zero first: it is the nicest constant of all (drops the term entirely)
    // and unreachable through relative-tolerance lattice candidates, yet it
    // is exactly right for fits carrying a floating-point residue like
    // "+ 0.00008".
    CandidateList& list =
        lists[column < 0 ? lists.size() - 1 : static_cast<size_t>(column)];
    if (list.candidates.empty() || list.value != original) {
      list.value = original;
      list.candidates = {0.0};
      for (double candidate :
           SnapCandidates(original, options.max_relative_coefficient_shift)) {
        list.candidates.push_back(candidate);
      }
    }
    for (double candidate : list.candidates) {
      double delta = candidate - original;
      double total = 0.0;
      if (column < 0) {
        for (size_t i = 0; i < n; ++i) total += std::abs(residuals[i] - delta);
      } else {
        for (size_t i = 0; i < n; ++i) {
          total += std::abs(residuals[i] -
                            delta * x.At(static_cast<int64_t>(i), column));
        }
      }
      if (total / static_cast<double>(n) <= allowed_mae) {
        *constant = candidate;
        changed = true;
        if (column < 0) {
          for (size_t i = 0; i < n; ++i) residuals[i] -= delta;
        } else {
          for (size_t i = 0; i < n; ++i) {
            residuals[i] -= delta * x.At(static_cast<int64_t>(i), column);
          }
        }
        return true;
      }
    }
    return false;
  };
  for (int pass = 0; pass < 3; ++pass) {
    bool changed_this_pass = false;
    for (size_t c = 0; c < snapped.coefficients.size(); ++c) {
      changed_this_pass |=
          try_constant(&snapped.coefficients[c], static_cast<int64_t>(c));
    }
    changed_this_pass |= try_constant(&snapped.intercept, -1);
    if (!changed_this_pass) break;
  }

  // Final diagnostics from the final constants — full re-prediction, exactly
  // as the QR path computes them, so incremental-residual drift can never
  // leak into a reported mae/rmse/r². A model no snap touched predicts what
  // it predicted above.
  if (changed) predicted = snapped.PredictBatch(x);
  RecomputeDiagnostics(&snapped, predicted, y);
  if (predictions != nullptr) *predictions = std::move(predicted);
  return snapped;
}

}  // namespace charles
