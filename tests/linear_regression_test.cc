#include "ml/linear_regression.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <ostream>

#include "common/random.h"

namespace charles {
namespace {

TEST(LinearRegressionTest, RecoversExactLine) {
  // y = 1.05 x + 1000 — the Example-1 R1 rule.
  Matrix x = Matrix::FromRows({{23000}, {25000}, {21000}});
  std::vector<double> y = {25150, 27250, 23050};
  LinearModel model = LinearRegression::Fit(x, y, {"bonus"}).ValueOrDie();
  EXPECT_NEAR(model.coefficients[0], 1.05, 1e-9);
  EXPECT_NEAR(model.intercept, 1000.0, 1e-5);
  EXPECT_NEAR(model.r2, 1.0, 1e-12);
  EXPECT_NEAR(model.mae, 0.0, 1e-6);
}

TEST(LinearRegressionTest, TwoFeatures) {
  // y = 2a - 3b + 7.
  Matrix x = Matrix::FromRows({{1, 1}, {2, 1}, {1, 2}, {3, 5}, {4, 2}});
  std::vector<double> y;
  for (int64_t r = 0; r < x.rows(); ++r) {
    y.push_back(2 * x.At(r, 0) - 3 * x.At(r, 1) + 7);
  }
  LinearModel model = LinearRegression::Fit(x, y, {"a", "b"}).ValueOrDie();
  EXPECT_NEAR(model.coefficients[0], 2.0, 1e-9);
  EXPECT_NEAR(model.coefficients[1], -3.0, 1e-9);
  EXPECT_NEAR(model.intercept, 7.0, 1e-9);
}

TEST(LinearRegressionTest, ZeroFeaturesFitsMean) {
  Matrix x(4, 0);
  LinearModel model = LinearRegression::Fit(x, {1, 2, 3, 4}, {}).ValueOrDie();
  EXPECT_DOUBLE_EQ(model.intercept, 2.5);
  EXPECT_TRUE(model.coefficients.empty());
}

TEST(LinearRegressionTest, ConstantTargetShortCircuits) {
  Matrix x = Matrix::FromRows({{1}, {2}, {3}});
  LinearModel model = LinearRegression::Fit(x, {5, 5, 5}, {"f"}).ValueOrDie();
  EXPECT_DOUBLE_EQ(model.intercept, 5.0);
  EXPECT_DOUBLE_EQ(model.coefficients[0], 0.0);
  EXPECT_DOUBLE_EQ(model.r2, 1.0);
}

TEST(LinearRegressionTest, UnderdeterminedFallsBackToRidge) {
  // One point, one feature: any line through it fits; ridge keeps it finite.
  Matrix x = Matrix::FromRows({{13000}});
  LinearModel model = LinearRegression::Fit(x, {13790}, {"bonus"}).ValueOrDie();
  EXPECT_NEAR(model.Predict({13000}), 13790, 1.0);
}

TEST(LinearRegressionTest, CollinearFeaturesFallBackToRidge) {
  Matrix x = Matrix::FromRows({{1, 2}, {2, 4}, {3, 6}, {4, 8}});
  std::vector<double> y = {3, 6, 9, 12};  // y = 3*col1 (or 1.5*col2)
  LinearModel model = LinearRegression::Fit(x, y, {"a", "b"}).ValueOrDie();
  for (int64_t r = 0; r < x.rows(); ++r) {
    EXPECT_NEAR(model.Predict({x.At(r, 0), x.At(r, 1)}), y[static_cast<size_t>(r)], 1e-2);
  }
}

TEST(LinearRegressionTest, InputValidation) {
  Matrix x = Matrix::FromRows({{1}});
  EXPECT_TRUE(LinearRegression::Fit(Matrix(0, 1), {}, {"f"}).status().IsInvalidArgument());
  EXPECT_TRUE(LinearRegression::Fit(x, {1, 2}, {"f"}).status().IsInvalidArgument());
  EXPECT_TRUE(LinearRegression::Fit(x, {1}, {"f", "g"}).status().IsInvalidArgument());
}

TEST(LinearRegressionTest, DiagnosticsOnNoisyData) {
  Rng rng(4242);
  int64_t n = 400;
  Matrix x(n, 1);
  std::vector<double> y(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    x.At(i, 0) = rng.Uniform(0, 100);
    y[static_cast<size_t>(i)] = 3.0 * x.At(i, 0) + 10 + rng.Normal(0, 5);
  }
  LinearModel model = LinearRegression::Fit(x, y, {"f"}).ValueOrDie();
  EXPECT_NEAR(model.coefficients[0], 3.0, 0.05);
  EXPECT_GT(model.r2, 0.99);
  EXPECT_NEAR(model.mae, 4.0, 1.5);  // E|N(0,5)| ≈ 3.99
  EXPECT_NEAR(model.rmse, 5.0, 1.5);
}

TEST(LinearModelTest, PredictBatchMatchesPredict) {
  LinearModel model;
  model.intercept = 1.0;
  model.coefficients = {2.0, -1.0};
  model.feature_names = {"a", "b"};
  Matrix x = Matrix::FromRows({{1, 1}, {0, 5}});
  std::vector<double> batch = model.PredictBatch(x);
  EXPECT_DOUBLE_EQ(batch[0], model.Predict({1, 1}));
  EXPECT_DOUBLE_EQ(batch[1], model.Predict({0, 5}));
}

TEST(LinearModelTest, NumActiveTermsIgnoresZeros) {
  LinearModel model;
  model.coefficients = {1.5, 0.0, -2.0};
  model.feature_names = {"a", "b", "c"};
  EXPECT_EQ(model.NumActiveTerms(), 2);
}

TEST(LinearModelTest, ToStringRendering) {
  LinearModel model;
  model.intercept = 1000;
  model.coefficients = {1.05};
  model.feature_names = {"old_bonus"};
  EXPECT_EQ(model.ToString("new_bonus"), "new_bonus = 1.05 × old_bonus + 1000");

  LinearModel negative;
  negative.intercept = -50;
  negative.coefficients = {-2.0, 1.0};
  negative.feature_names = {"a", "b"};
  EXPECT_EQ(negative.ToString("y"), "y = -2 × a + b - 50");

  LinearModel constant;
  constant.intercept = 42;
  EXPECT_EQ(constant.ToString("y"), "y = 42");
}

/// Property: planted coefficients are recovered across dimensions and sizes.
struct PlantedCase {
  int features;
  int64_t rows;
};

// gtest's default printer dumps the raw object bytes, padding included, and
// the padding between `features` and `rows` holds whatever the register or
// stack slot held, so the test names changed from run to run. Print the same
// dump with the padding zeroed so each case keeps one stable name.
void PrintTo(const PlantedCase& c, std::ostream* os) {
  unsigned char bytes[sizeof(PlantedCase)] = {};
  std::memcpy(bytes + offsetof(PlantedCase, features), &c.features, sizeof c.features);
  std::memcpy(bytes + offsetof(PlantedCase, rows), &c.rows, sizeof c.rows);
  *os << sizeof bytes << "-byte object <";
  for (size_t i = 0; i < sizeof bytes; ++i) {
    char hex[3];
    std::snprintf(hex, sizeof hex, "%02X", bytes[i]);
    if (i > 0) *os << (i % 2 == 0 ? ' ' : '-');
    *os << hex;
  }
  *os << '>';
}

class PlantedRecovery : public ::testing::TestWithParam<PlantedCase> {};

TEST_P(PlantedRecovery, ExactOnNoiselessData) {
  auto [p, n] = GetParam();
  Rng rng(99 + static_cast<uint64_t>(p) * 7 + static_cast<uint64_t>(n));
  Matrix x(n, p);
  std::vector<double> planted(static_cast<size_t>(p));
  for (int c = 0; c < p; ++c) planted[static_cast<size_t>(c)] = rng.Uniform(-3, 3);
  double intercept = rng.Uniform(-100, 100);
  std::vector<double> y(static_cast<size_t>(n), intercept);
  for (int64_t r = 0; r < n; ++r) {
    for (int c = 0; c < p; ++c) {
      x.At(r, c) = rng.Uniform(-50, 50);
      y[static_cast<size_t>(r)] += planted[static_cast<size_t>(c)] * x.At(r, c);
    }
  }
  std::vector<std::string> names;
  for (int c = 0; c < p; ++c) names.push_back("f" + std::to_string(c));
  LinearModel model = LinearRegression::Fit(x, y, names).ValueOrDie();
  EXPECT_NEAR(model.intercept, intercept, 1e-6);
  for (int c = 0; c < p; ++c) {
    EXPECT_NEAR(model.coefficients[static_cast<size_t>(c)],
                planted[static_cast<size_t>(c)], 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PlantedRecovery,
                         ::testing::Values(PlantedCase{1, 5}, PlantedCase{1, 100},
                                           PlantedCase{2, 10}, PlantedCase{3, 50},
                                           PlantedCase{5, 200}, PlantedCase{8, 1000}));

}  // namespace
}  // namespace charles
