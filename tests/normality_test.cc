#include "core/normality.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>

#include "core/normality_internal.h"
#include "expr/parser.h"
#include "linalg/stats.h"

namespace charles {
namespace {

/// The pow-per-lookup implementation the power-of-ten table replaced, kept
/// verbatim as the differential oracle (finite input only: the originals
/// cast floor(log10(±inf/NaN)) to int).
namespace oracle {

int SignificantDigits(double value) {
  value = std::abs(value);
  if (value <= 1e-300) return 1;  // zero
  // Normalize into [1, 10).
  int exponent = static_cast<int>(std::floor(std::log10(value)));
  double mantissa = value / std::pow(10.0, exponent);
  for (int digits = 1; digits <= 9; ++digits) {
    double scaled = mantissa * std::pow(10.0, digits - 1);
    if (std::abs(scaled - std::round(scaled)) < 1e-6 * std::max(1.0, scaled)) {
      return digits;
    }
  }
  return 10;
}

double NumberNormality(double value) {
  int digits = SignificantDigits(value);
  double score = 1.0 - 0.2 * static_cast<double>(digits - 1);
  return score < 0.0 ? 0.0 : score;
}

std::vector<double> SnapCandidates(double value, double tolerance) {
  std::vector<double> candidates;
  if (std::abs(value) <= 1e-300) return candidates;
  double magnitude = std::abs(value);
  int exponent = static_cast<int>(std::floor(std::log10(magnitude)));
  // Lattice steps scaled by descending powers of ten; chosen so common human
  // constants (25, 250, 0.05, 1000) are reachable.
  static const double kStepMantissas[] = {1.0, 0.5, 0.25, 0.2, 0.1};
  for (int e = exponent + 1; e >= exponent - 3; --e) {
    double base = std::pow(10.0, e);
    for (double mantissa : kStepMantissas) {
      double step = mantissa * base;
      double candidate = std::round(value / step) * step;
      if (candidate == 0.0) continue;
      if (std::abs(candidate - value) <= tolerance * magnitude &&
          NumberNormality(candidate) > NumberNormality(value)) {
        candidates.push_back(candidate);
      }
    }
  }
  // Nicest first; ties broken towards the closer candidate. Deduplicate.
  std::sort(candidates.begin(), candidates.end(), [value](double a, double b) {
    double na = NumberNormality(a);
    double nb = NumberNormality(b);
    if (na != nb) return na > nb;
    return std::abs(a - value) < std::abs(b - value);
  });
  candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());
  return candidates;
}

/// SnapModel's diagnostics as three separate passes over PredictBatch (the
/// unfused computation the one-pass version must match bit for bit).
void RecomputeDiagnostics(LinearModel* model, const Matrix& x,
                          const std::vector<double>& y) {
  std::vector<double> predicted = model->PredictBatch(x);
  model->mae = MeanAbsoluteError(predicted, y);
  model->rmse = RootMeanSquaredError(predicted, y);
  double total_var = Variance(y);
  if (total_var <= 1e-300) {
    model->r2 = model->rmse <= 1e-9 ? 1.0 : 0.0;
  } else {
    double ss = 0.0;
    for (size_t i = 0; i < y.size(); ++i) {
      double e = y[i] - predicted[i];
      ss += e * e;
    }
    model->r2 = 1.0 - (ss / static_cast<double>(y.size())) / total_var;
  }
}

}  // namespace oracle

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// ~40k finite doubles (seeded): every decimal exponent the table serves,
/// near-misses of lattice points at 1e-16..1e-1 relative, scaled integers,
/// random bit patterns, subnormals, and the table's edge exponents.
std::vector<double> DifferentialCorpus() {
  std::mt19937_64 rng(20240917);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<double> corpus;
  auto add = [&](double v) {
    corpus.push_back(v);
    corpus.push_back(-v);
  };
  // Every exponent -300..308: the power itself, its ulp neighbours, and a
  // random mantissa.
  for (int e = -300; e <= 308; ++e) {
    double p = std::pow(10.0, e);
    add(p);
    add(std::nextafter(p, 0.0));
    add(std::nextafter(p, std::numeric_limits<double>::infinity()));
    // Mantissas stay below DBL_MAX's 1.797 at the top exponent.
    add((1.0 + (e == 308 ? 0.79 : 9.0) * unit(rng)) * p);
  }
  // Within 1e-16..1e-1 relative of a lattice point m × 10^e.
  static const double kLattice[] = {1.0, 2.0, 2.5, 5.0, 1.5, 7.5, 12.0, 25.0, 45.0};
  std::uniform_int_distribution<int> exponent(-20, 20);
  for (int i = 0; i < 10000; ++i) {
    double point = kLattice[i % 9] * std::pow(10.0, exponent(rng));
    double relative = std::pow(10.0, -16.0 + 15.0 * unit(rng));
    add(point * (unit(rng) < 0.5 ? 1.0 - relative : 1.0 + relative));
  }
  // Integers up to ±1000 scaled by 10^±10.
  std::uniform_int_distribution<int> integer(1, 1000);
  std::uniform_int_distribution<int> scale(-10, 10);
  for (int i = 0; i < 5000; ++i) {
    int k = scale(rng);
    double base = static_cast<double>(integer(rng));
    add(k >= 0 ? base * std::pow(10.0, k) : base / std::pow(10.0, -k));
  }
  // Random finite bit patterns.
  for (int i = 0; i < 4000; ++i) {
    uint64_t bits = rng();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    if (std::isfinite(v)) corpus.push_back(v);
  }
  // Subnormals and the zero threshold.
  for (int i = 0; i < 500; ++i) {
    uint64_t bits = rng() & ((uint64_t{1} << 52) - 1);
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    add(v);
  }
  for (double v : {0.0, 1e-300, std::nextafter(1e-300, 0.0), std::nextafter(1e-300, 1.0),
                   std::numeric_limits<double>::denorm_min(),
                   std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
                   std::nextafter(std::numeric_limits<double>::max(), 0.0), 1e-297,
                   9.999e-301, 1e308, 1.7e308}) {
    add(v);
  }
  return corpus;
}

TEST(NormalityTableTest, PowersOfTenAreThePowCallsTheyReplace) {
  volatile double ten = 10.0;
  for (int k = normality_internal::kMinPowerOfTen; k <= normality_internal::kMaxPowerOfTen;
       ++k) {
    ASSERT_TRUE(SameBits(normality_internal::PowerOfTen(k), std::pow(ten, k))) << k;
  }
}

TEST(NormalityTableTest, TableIndexInRangeForEveryFiniteInput) {
  // log10 is monotone, so the extreme finite magnitudes above the zero
  // threshold bound every finite input's exponent.
  EXPECT_EQ(normality_internal::DecimalExponent(std::nextafter(1e-300, 1.0)), -300);
  EXPECT_EQ(normality_internal::DecimalExponent(std::numeric_limits<double>::max()), 308);
  for (double v : DifferentialCorpus()) {
    ASSERT_TRUE(std::isfinite(v));
    if (std::abs(v) <= 1e-300) continue;
    int e = normality_internal::DecimalExponent(v);
    // SnapCandidates reads 10^(e+1) .. 10^(e-3); SignificantDigits 10^e.
    ASSERT_GE(e - 3, normality_internal::kMinPowerOfTen) << v;
    ASSERT_LE(e + 1, normality_internal::kMaxPowerOfTen) << v;
  }
}

TEST(NormalityTableTest, MatchesPowOracleBitForBit) {
  const std::vector<double> corpus = DifferentialCorpus();
  ASSERT_GT(corpus.size(), 35000u);
  for (double v : corpus) {
    ASSERT_TRUE(SameBits(NumberNormality(v), oracle::NumberNormality(v))) << v;
    for (double tolerance : {0.01, 0.02, 0.05, 0.1, 0.25}) {
      ASSERT_TRUE(SameBits(SnapCandidates(v, tolerance),
                           oracle::SnapCandidates(v, tolerance)))
          << v << " at tolerance " << tolerance;
    }
  }
}

TEST(NormalityTableTest, NonFiniteInputIsDefined) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double v : {inf, -inf, nan}) {
    EXPECT_EQ(NumberNormality(v), 0.0);
    EXPECT_TRUE(SnapCandidates(v, 0.05).empty());
  }
  EXPECT_EQ(SnapNumber(inf, 0.05), inf);
  EXPECT_EQ(SnapNumber(-inf, 0.05), -inf);
  EXPECT_TRUE(std::isnan(SnapNumber(nan, 0.05)));
}

TEST(NumberNormalityTest, PaperExamples) {
  // "5% for a salary increase is more normal than 2.479%."
  EXPECT_GT(NumberNormality(0.05), NumberNormality(0.02479));
  // "Age > 25 is more normal than Age > 23.796."
  EXPECT_GT(NumberNormality(25), NumberNormality(23.796));
}

TEST(NumberNormalityTest, FewerSignificantDigitsScoreHigher) {
  EXPECT_DOUBLE_EQ(NumberNormality(1000), 1.0);
  EXPECT_DOUBLE_EQ(NumberNormality(0.0), 1.0);
  EXPECT_GT(NumberNormality(1.05), NumberNormality(1.0567));
  EXPECT_GT(NumberNormality(800), NumberNormality(823));
  EXPECT_GT(NumberNormality(0.5), NumberNormality(0.55));
}

TEST(NumberNormalityTest, SignAndScaleInvariance) {
  EXPECT_DOUBLE_EQ(NumberNormality(-1000), NumberNormality(1000));
  EXPECT_DOUBLE_EQ(NumberNormality(0.05), NumberNormality(5000));
}

TEST(SnapNumberTest, SnapsWithinTolerance) {
  EXPECT_DOUBLE_EQ(SnapNumber(0.0498, 0.05), 0.05);
  EXPECT_DOUBLE_EQ(SnapNumber(1002.7, 0.05), 1000.0);
  EXPECT_DOUBLE_EQ(SnapNumber(0.0, 0.05), 0.0);
}

TEST(SnapNumberTest, RefusesSnapsBeyondTolerance) {
  // Nearest nicer lattice value (0.044) sits 0.69% away: reachable at 1%
  // tolerance but not at 0.1%.
  EXPECT_DOUBLE_EQ(SnapNumber(0.0437, 0.001), 0.0437);
  EXPECT_NEAR(SnapNumber(0.0437, 0.01), 0.044, 1e-12);
}

TEST(SnapNumberTest, AlreadyNiceValuesUnchanged) {
  EXPECT_DOUBLE_EQ(SnapNumber(1.05, 0.01), 1.05);
  EXPECT_DOUBLE_EQ(SnapNumber(1000.0, 0.05), 1000.0);
}

TEST(ModelNormalityTest, AveragesNonTrivialConstants) {
  LinearModel nice;
  nice.coefficients = {1.0};  // single significant digit: 1.0
  nice.feature_names = {"x"};
  nice.intercept = 1000;
  EXPECT_DOUBLE_EQ(ModelNormality(nice), 1.0);

  LinearModel ugly;
  ugly.coefficients = {1.23457};
  ugly.feature_names = {"x"};
  ugly.intercept = 0;  // zero intercept ignored
  EXPECT_LT(ModelNormality(ugly), 0.3);

  LinearModel empty;
  EXPECT_DOUBLE_EQ(ModelNormality(empty), 1.0);
}

TEST(ConditionNormalityTest, NumericLiteralsOnly) {
  ExprPtr clean = ParseExpr("edu = 'PhD'").ValueOrDie();
  EXPECT_DOUBLE_EQ(ConditionNormality(*clean), 1.0);
  ExprPtr nice = ParseExpr("age > 25").ValueOrDie();
  ExprPtr ugly = ParseExpr("age > 23.796").ValueOrDie();
  EXPECT_GT(ConditionNormality(*nice), ConditionNormality(*ugly));
}

TEST(SnapModelTest, SnapsNoisyCoefficientsWhenAccuracyAllows) {
  // Data truly generated by y = 1.05 x + 1000; the "fitted" model is off by
  // a hair. Snapping should land exactly on the true constants.
  Matrix x = Matrix::FromRows({{10000}, {20000}, {30000}, {40000}});
  std::vector<double> y;
  for (int64_t r = 0; r < x.rows(); ++r) y.push_back(1.05 * x.At(r, 0) + 1000);
  LinearModel fitted;
  fitted.coefficients = {1.0502};
  fitted.feature_names = {"b"};
  fitted.intercept = 997.0;
  NormalityOptions options;
  LinearModel snapped = SnapModel(fitted, x, y, options);
  EXPECT_DOUBLE_EQ(snapped.coefficients[0], 1.05);
  EXPECT_DOUBLE_EQ(snapped.intercept, 1000.0);
  EXPECT_NEAR(snapped.mae, 0.0, 1e-9);
}

TEST(SnapModelTest, RevertsWhenAccuracyWouldSuffer) {
  // y = 1.037 x exactly; snapping 1.037 -> 1.05 would cost real accuracy.
  Matrix x = Matrix::FromRows({{10000}, {20000}, {30000}});
  std::vector<double> y;
  for (int64_t r = 0; r < x.rows(); ++r) y.push_back(1.037 * x.At(r, 0));
  LinearModel fitted;
  fitted.coefficients = {1.037};
  fitted.feature_names = {"b"};
  fitted.intercept = 0.0;
  NormalityOptions options;
  options.max_relative_coefficient_shift = 0.05;  // would allow reaching 1.05
  options.max_relative_accuracy_loss = 0.0001;    // but the guard refuses
  LinearModel snapped = SnapModel(fitted, x, y, options);
  EXPECT_DOUBLE_EQ(snapped.coefficients[0], 1.037);
}

TEST(SnapModelTest, DisabledSnappingIsIdentity) {
  Matrix x = Matrix::FromRows({{1.0}});
  LinearModel fitted;
  fitted.coefficients = {1.0502};
  fitted.feature_names = {"b"};
  NormalityOptions options;
  options.enable_snapping = false;
  LinearModel out = SnapModel(fitted, x, {2.0}, options);
  EXPECT_DOUBLE_EQ(out.coefficients[0], 1.0502);
}

/// A seeded two-feature leaf y = b0·x0 + b1·x1 + intercept (+ noise).
struct SeededLeaf {
  Matrix x;
  std::vector<double> y;
};

SeededLeaf MakeSeededLeaf(double b0, double b1, double intercept, double noise) {
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> x0(1000.0, 5000.0);
  std::uniform_real_distribution<double> x1(10.0, 400.0);
  std::normal_distribution<double> eps(0.0, 1.0);
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  for (int i = 0; i < 300; ++i) {
    rows.push_back({x0(rng), x1(rng)});
    y.push_back(b0 * rows.back()[0] + b1 * rows.back()[1] + intercept + noise * eps(rng));
  }
  return {Matrix::FromRows(rows), std::move(y)};
}

int ChangedConstants(const LinearModel& before, const LinearModel& after) {
  int changed = SameBits(before.intercept, after.intercept) ? 0 : 1;
  for (size_t c = 0; c < before.coefficients.size(); ++c) {
    if (!SameBits(before.coefficients[c], after.coefficients[c])) ++changed;
  }
  return changed;
}

void ExpectPredictionsAndDiagnosticsMatch(const LinearModel& fitted, const Matrix& x,
                                          const std::vector<double>& y,
                                          const NormalityOptions& options,
                                          int expected_changes) {
  std::vector<double> predictions;
  LinearModel snapped = SnapModel(fitted, x, y, options, nullptr, &predictions);
  EXPECT_EQ(ChangedConstants(fitted, snapped), expected_changes);
  EXPECT_TRUE(SameBits(predictions, snapped.PredictBatch(x)));
  if (!options.enable_snapping) return;
  LinearModel unfused = snapped;
  oracle::RecomputeDiagnostics(&unfused, x, y);
  EXPECT_TRUE(SameBits(snapped.r2, unfused.r2));
  EXPECT_TRUE(SameBits(snapped.rmse, unfused.rmse));
  EXPECT_TRUE(SameBits(snapped.mae, unfused.mae));
}

TEST(SnapModelTest, PredictionsAndDiagnosticsWhenSnappingChangesNone) {
  // The fit is exact on ugly constants: every snap would break exactness.
  SeededLeaf leaf = MakeSeededLeaf(1.0437, 2.5371, 1017.3, 0.0);
  LinearModel fitted;
  fitted.coefficients = {1.0437, 2.5371};
  fitted.feature_names = {"x0", "x1"};
  fitted.intercept = 1017.3;
  NormalityOptions options;
  ExpectPredictionsAndDiagnosticsMatch(fitted, leaf.x, leaf.y, options, 0);
}

TEST(SnapModelTest, PredictionsAndDiagnosticsWhenSnappingChangesOne) {
  SeededLeaf leaf = MakeSeededLeaf(1.05, 2.5, 1000.0, 0.0);
  LinearModel fitted;
  fitted.coefficients = {1.0503, 2.5};
  fitted.feature_names = {"x0", "x1"};
  fitted.intercept = 1000.0;
  NormalityOptions options;
  ExpectPredictionsAndDiagnosticsMatch(fitted, leaf.x, leaf.y, options, 1);
}

TEST(SnapModelTest, PredictionsAndDiagnosticsWhenSnappingChangesAll) {
  SeededLeaf leaf = MakeSeededLeaf(1.05, 2.5, 1000.0, 5.0);
  LinearModel fitted;
  fitted.coefficients = {1.0502, 2.4993};
  fitted.feature_names = {"x0", "x1"};
  fitted.intercept = 997.3;
  NormalityOptions options;
  ExpectPredictionsAndDiagnosticsMatch(fitted, leaf.x, leaf.y, options, 3);
}

TEST(SnapModelTest, PredictionsWhenSnappingDisabled) {
  SeededLeaf leaf = MakeSeededLeaf(1.05, 2.5, 1000.0, 5.0);
  LinearModel fitted;
  fitted.coefficients = {1.0502, 2.4993};
  fitted.feature_names = {"x0", "x1"};
  fitted.intercept = 997.3;
  NormalityOptions options;
  options.enable_snapping = false;
  ExpectPredictionsAndDiagnosticsMatch(fitted, leaf.x, leaf.y, options, 0);
}

TEST(SnapModelTest, DiagnosticsOnConstantTarget) {
  // Zero target variance takes r²'s constant-target branch.
  Matrix x = Matrix::FromRows({{1.0}, {2.0}, {3.0}, {4.0}});
  std::vector<double> y = {7.0, 7.0, 7.0, 7.0};
  LinearModel fitted;
  fitted.coefficients = {0.0};
  fitted.feature_names = {"x"};
  fitted.intercept = 7.0001;
  NormalityOptions options;
  ExpectPredictionsAndDiagnosticsMatch(fitted, x, y, options, 1);
}

}  // namespace
}  // namespace charles
