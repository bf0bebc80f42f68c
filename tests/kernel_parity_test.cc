/// \file
/// Differential kernel-parity harness (ISSUE 7): the vectorized kernel must
/// reproduce the scalar reference kernel's bits exactly — per block, per
/// fold, per op — for hundreds of seeded (rows × cols × block_size) shapes,
/// including tail blocks shorter than the block size, single-row blocks,
/// sparse index subsets, and adversarial magnitudes (1e±30 mixes,
/// denormals, negative zeros). This harness is what makes the intra-block
/// kernels safe to rewrite: any reassociation, contraction, or accumulation
/// shortcut that changes even one bit of one block fails here.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "linalg/error_partials.h"
#include "linalg/score_partials.h"
#include "linalg/kernels/kernel.h"
#include "linalg/suffstats.h"

namespace charles {
namespace {

using kernels::Kernel;
using kernels::ScalarKernel;
using kernels::SimdKernel;

/// One adversarial double: a mixture of benign values, huge/tiny decades
/// (1e±30), denormals, and signed zeros — the inputs where any intra-block
/// reassociation shows up as changed bits immediately.
double AdversarialValue(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  switch (rng() % 8) {
    case 0:
      return unit(rng);
    case 1:
      return unit(rng) * 1e30;
    case 2:
      return unit(rng) * 1e-30;
    case 3:
      return -0.0;
    case 4:
      return 0.0;
    case 5:
      // A spread of true denormals (the smallest representable magnitudes).
      return std::numeric_limits<double>::denorm_min() *
             static_cast<double>(1 + rng() % 1000);
    case 6:
      // Large mean, small spread: the shift-cancellation regime.
      return 1e8 + unit(rng);
    default: {
      int exp10 = static_cast<int>(rng() % 61) - 30;
      return unit(rng) * std::pow(10.0, exp10);
    }
  }
}

std::vector<double> AdversarialColumn(int64_t n, std::mt19937_64& rng) {
  std::vector<double> column(static_cast<size_t>(n));
  for (double& v : column) v = AdversarialValue(rng);
  return column;
}

/// Row index sets: either all rows or a random sorted subset (leaves are
/// subsets, and subsets produce short and fragmented per-block runs).
std::vector<int64_t> MakeRows(int64_t n, bool subset, std::mt19937_64& rng) {
  std::vector<int64_t> rows;
  for (int64_t r = 0; r < n; ++r) {
    if (!subset || rng() % 3 != 0) rows.push_back(r);
  }
  if (rows.empty()) rows.push_back(n / 2);  // keep at least one row
  return rows;
}

struct ShapeCase {
  std::vector<std::vector<double>> column_storage;
  std::vector<const std::vector<double>*> columns;
  std::vector<double> y;
  std::vector<int64_t> rows;
};

ShapeCase MakeShapeCase(int64_t num_rows, int64_t num_cols, bool subset,
                        std::mt19937_64& rng) {
  ShapeCase c;
  c.column_storage.reserve(static_cast<size_t>(num_cols));
  for (int64_t f = 0; f < num_cols; ++f) {
    c.column_storage.push_back(AdversarialColumn(num_rows, rng));
  }
  for (const auto& col : c.column_storage) c.columns.push_back(&col);
  c.y = AdversarialColumn(num_rows, rng);
  c.rows = MakeRows(num_rows, subset, rng);
  return c;
}

// --- SufficientStats block folds --------------------------------------------

TEST(KernelParityTest, HundredsOfSeededShapesBitIdentical) {
  const Kernel& scalar = ScalarKernel();
  const Kernel& simd = SimdKernel();
  int shapes_checked = 0;
  for (uint64_t seed = 0; seed < 150; ++seed) {
    std::mt19937_64 rng(seed * 7919 + 17);
    int64_t num_rows = 1 + static_cast<int64_t>(rng() % 200);
    int64_t num_cols = static_cast<int64_t>(rng() % 7);  // includes p = 0
    bool subset = (rng() % 2) == 0;
    ShapeCase c = MakeShapeCase(num_rows, num_cols, subset, rng);
    // Block sizes spanning single-row blocks, prime sizes that leave tails,
    // one-block cases, and blocks larger than the data.
    const int64_t blocks[] = {1, 3, 7, 16, 64, num_rows, num_rows + 13};
    for (int64_t block_rows : blocks) {
      SufficientStats expected =
          AccumulateRowBlocks(scalar, c.columns, c.y, c.rows, block_rows);
      SufficientStats actual =
          AccumulateRowBlocks(simd, c.columns, c.y, c.rows, block_rows);
      ASSERT_TRUE(actual.BitIdenticalTo(expected))
          << "seed " << seed << " rows " << num_rows << " cols " << num_cols
          << " block " << block_rows << " subset " << subset;
      ++shapes_checked;
    }
  }
  EXPECT_GE(shapes_checked, 1000);  // "hundreds of shapes" and then some
}

TEST(KernelParityTest, ContiguousRangeFoldBitIdentical) {
  const Kernel& scalar = ScalarKernel();
  const Kernel& simd = SimdKernel();
  for (uint64_t seed = 0; seed < 50; ++seed) {
    std::mt19937_64 rng(seed * 104729 + 5);
    int64_t num_rows = 1 + static_cast<int64_t>(rng() % 300);
    int64_t num_cols = 1 + static_cast<int64_t>(rng() % 5);
    ShapeCase c = MakeShapeCase(num_rows, num_cols, /*subset=*/false, rng);
    for (int64_t block_rows : {1L, 5L, 32L, num_rows, num_rows + 1}) {
      SufficientStats expected =
          AccumulateRangeBlocks(scalar, c.columns, c.y, num_rows, block_rows);
      SufficientStats actual =
          AccumulateRangeBlocks(simd, c.columns, c.y, num_rows, block_rows);
      ASSERT_TRUE(actual.BitIdenticalTo(expected))
          << "seed " << seed << " rows " << num_rows << " block " << block_rows;
      // And the range fold must equal the indexed fold over the identity
      // index set — the contract that lets shards address blocks either way.
      std::vector<int64_t> identity(static_cast<size_t>(num_rows));
      for (int64_t r = 0; r < num_rows; ++r) identity[static_cast<size_t>(r)] = r;
      SufficientStats indexed =
          AccumulateRowBlocks(simd, c.columns, c.y, identity, block_rows);
      ASSERT_TRUE(indexed.BitIdenticalTo(actual))
          << "seed " << seed << " block " << block_rows;
    }
  }
}

TEST(KernelParityTest, SingleBlockPrimitiveBitIdentical) {
  // The raw block primitive (one fresh partial per call), including the
  // single-row and empty-block edges.
  const Kernel& scalar = ScalarKernel();
  const Kernel& simd = SimdKernel();
  for (uint64_t seed = 0; seed < 50; ++seed) {
    std::mt19937_64 rng(seed * 31 + 7);
    int64_t num_rows = 1 + static_cast<int64_t>(rng() % 80);
    int64_t num_cols = static_cast<int64_t>(rng() % 5);
    ShapeCase c = MakeShapeCase(num_rows, num_cols, /*subset=*/true, rng);
    int64_t count = static_cast<int64_t>(c.rows.size());
    for (int64_t take : {int64_t{0}, int64_t{1}, count / 2, count}) {
      SufficientStats expected =
          AccumulateRows(scalar, c.columns, c.y, c.rows.data(), take);
      SufficientStats actual =
          AccumulateRows(simd, c.columns, c.y, c.rows.data(), take);
      ASSERT_TRUE(actual.BitIdenticalTo(expected))
          << "seed " << seed << " take " << take;
      EXPECT_EQ(actual.n(), take);
    }
  }
}

TEST(KernelParityTest, MergeAcrossShardBoundarySplitsBitIdentical) {
  // The coordinator's computation: shards each produce *per-block* partials
  // and the merge folds every block in ascending order. Splitting the row
  // set at any block boundary and folding the two shards' blocks into one
  // stats must be bit-identical to the central scalar fold — with the simd
  // kernel producing the shard partials.
  const Kernel& scalar = ScalarKernel();
  const Kernel& simd = SimdKernel();
  for (uint64_t seed = 0; seed < 60; ++seed) {
    std::mt19937_64 rng(seed * 13 + 3);
    int64_t num_rows = 16 + static_cast<int64_t>(rng() % 200);
    int64_t num_cols = 1 + static_cast<int64_t>(rng() % 4);
    int64_t block_rows = 1 + static_cast<int64_t>(rng() % 32);
    ShapeCase c = MakeShapeCase(num_rows, num_cols, /*subset=*/true, rng);

    SufficientStats expected =
        AccumulateRowBlocks(scalar, c.columns, c.y, c.rows, block_rows);

    // Split position: the first row index at or after a random block
    // boundary — exactly where the shard planner is allowed to cut.
    int64_t boundary_row =
        block_rows *
        (1 + static_cast<int64_t>(
                 rng() % static_cast<uint64_t>(num_rows / block_rows + 1)));
    size_t split = 0;
    while (split < c.rows.size() && c.rows[split] < boundary_row) ++split;
    std::vector<int64_t> left(c.rows.begin(), c.rows.begin() + split);
    std::vector<int64_t> right(c.rows.begin() + split, c.rows.end());

    SufficientStats merged(num_cols);
    for (const std::vector<int64_t>& part : {left, right}) {
      ForEachRowBlock(part.data(), static_cast<int64_t>(part.size()),
                      block_rows,
                      [&](int64_t /*block*/, const int64_t* ptr, int64_t n) {
                        ASSERT_TRUE(
                            merged
                                .Merge(AccumulateRows(simd, c.columns, c.y,
                                                      ptr, n))
                                .ok());
                      });
    }
    ASSERT_TRUE(merged.BitIdenticalTo(expected))
        << "seed " << seed << " split at row " << boundary_row;
  }
}

// --- ErrorPartials folds -----------------------------------------------------

TEST(KernelParityTest, AbsDiffAndAbsFoldsBitIdentical) {
  const Kernel& scalar = ScalarKernel();
  const Kernel& simd = SimdKernel();
  for (uint64_t seed = 0; seed < 100; ++seed) {
    std::mt19937_64 rng(seed * 911 + 1);
    int64_t num_rows = 1 + static_cast<int64_t>(rng() % 400);
    std::vector<int64_t> rows = MakeRows(num_rows, (rng() % 2) == 0, rng);
    // Positional arrays: values[i] belongs to global row rows[i].
    std::vector<double> a = AdversarialColumn(static_cast<int64_t>(rows.size()), rng);
    std::vector<double> b = AdversarialColumn(static_cast<int64_t>(rows.size()), rng);
    for (int64_t block_rows : {1L, 7L, 64L, num_rows + 1}) {
      ErrorPartials expected_diff =
          AccumulateAbsDiffBlocks(scalar, a, b, rows, block_rows);
      ErrorPartials actual_diff =
          AccumulateAbsDiffBlocks(simd, a, b, rows, block_rows);
      ASSERT_TRUE(actual_diff.BitIdenticalTo(expected_diff))
          << "seed " << seed << " block " << block_rows;
      ErrorPartials expected_abs = AccumulateAbsBlocks(scalar, a, rows, block_rows);
      ErrorPartials actual_abs = AccumulateAbsBlocks(simd, a, rows, block_rows);
      ASSERT_TRUE(actual_abs.BitIdenticalTo(expected_abs))
          << "seed " << seed << " block " << block_rows;
    }
  }
}

/// The reference probe error chain: ŷ = intercept + Σ_f c_f·x_f accumulated
/// left-to-right (LinearModel::PredictRow's order), then Σ|y − ŷ| in row
/// order from zero. Kernels no longer carry it; probe_score_sum's Σ must
/// replay it bit for bit, which is what lets a kScorePartials round double
/// as the SnapModel error baseline.
double ProbeAbsErrorSum(double intercept, const double* coefficients,
                        const std::vector<const std::vector<double>*>& columns,
                        const std::vector<double>& y, const int64_t* rows,
                        int64_t count) {
  double sum = 0.0;
  for (int64_t i = 0; i < count; ++i) {
    size_t row = static_cast<size_t>(rows[i]);
    double y_hat = intercept;
    for (size_t f = 0; f < columns.size(); ++f) {
      y_hat += coefficients[f] * (*columns[f])[row];
    }
    sum += std::abs(y[row] - y_hat);
  }
  return sum;
}

TEST(KernelParityTest, ProbeAbsErrorSumBitIdentical) {
  for (const Kernel* kernel : {&ScalarKernel(), &SimdKernel()}) {
    for (uint64_t seed = 0; seed < 100; ++seed) {
      std::mt19937_64 rng(seed * 2221 + 9);
      int64_t num_rows = 1 + static_cast<int64_t>(rng() % 300);
      int64_t num_cols = static_cast<int64_t>(rng() % 4);
      ShapeCase c = MakeShapeCase(num_rows, num_cols, /*subset=*/true, rng);
      double intercept = AdversarialValue(rng);
      std::vector<double> coefficients(static_cast<size_t>(num_cols));
      for (double& v : coefficients) v = AdversarialValue(rng);
      int64_t count = static_cast<int64_t>(c.rows.size());
      for (int64_t take : {int64_t{1}, count / 3, count}) {
        if (take < 1) continue;
        double expected = ProbeAbsErrorSum(intercept, coefficients.data(),
                                           c.columns, c.y, c.rows.data(), take);
        double actual = 0.0;
        int64_t exact = 0;
        kernel->probe_score_sum(intercept, coefficients.data(), c.columns, c.y,
                                c.rows.data(), take, /*tolerance=*/0.0, &actual,
                                &exact);
        ASSERT_EQ(std::memcmp(&expected, &actual, sizeof(double)), 0)
            << kernel->name << " seed " << seed << " take " << take;
      }
    }
  }
}

// --- ScorePartials folds ------------------------------------------------------

TEST(KernelParityTest, ScoreDiffSumBitIdenticalAndSumMatchesAbsDiff) {
  const Kernel& scalar = ScalarKernel();
  const Kernel& simd = SimdKernel();
  for (uint64_t seed = 0; seed < 100; ++seed) {
    std::mt19937_64 rng(seed * 433 + 5);
    int64_t num_rows = 1 + static_cast<int64_t>(rng() % 400);
    std::vector<int64_t> rows = MakeRows(num_rows, (rng() % 2) == 0, rng);
    std::vector<double> a = AdversarialColumn(static_cast<int64_t>(rows.size()), rng);
    std::vector<double> b = AdversarialColumn(static_cast<int64_t>(rows.size()), rng);
    // Spread the band across the adversarial decades so some seeds tally
    // nothing, some everything, most a genuine mix.
    double tolerance = std::pow(10.0, static_cast<int>(rng() % 61) - 30);
    for (int64_t block_rows : {1L, 7L, 64L, num_rows + 1}) {
      ScorePartials expected =
          AccumulateScoreDiffBlocks(scalar, a, b, rows, block_rows, tolerance);
      ScorePartials actual =
          AccumulateScoreDiffBlocks(simd, a, b, rows, block_rows, tolerance);
      ASSERT_TRUE(actual.BitIdenticalTo(expected))
          << "seed " << seed << " block " << block_rows;
      // The Σ chain is the error fold's chain: same addends, same order.
      ErrorPartials error_fold =
          AccumulateAbsDiffBlocks(scalar, a, b, rows, block_rows);
      ASSERT_EQ(std::memcmp(&expected.abs_error_sum, &error_fold.abs_error_sum,
                            sizeof(double)),
                0)
          << "seed " << seed << " block " << block_rows;
      ASSERT_EQ(expected.n, error_fold.n);
    }
  }
}

TEST(KernelParityTest, ProbeScoreSumBitIdenticalAndSumMatchesProbeError) {
  const Kernel& scalar = ScalarKernel();
  const Kernel& simd = SimdKernel();
  for (uint64_t seed = 0; seed < 100; ++seed) {
    std::mt19937_64 rng(seed * 3907 + 11);
    int64_t num_rows = 1 + static_cast<int64_t>(rng() % 300);
    int64_t num_cols = static_cast<int64_t>(rng() % 4);
    ShapeCase c = MakeShapeCase(num_rows, num_cols, /*subset=*/true, rng);
    double intercept = AdversarialValue(rng);
    std::vector<double> coefficients(static_cast<size_t>(num_cols));
    for (double& v : coefficients) v = AdversarialValue(rng);
    double tolerance = std::pow(10.0, static_cast<int>(rng() % 61) - 30);
    int64_t count = static_cast<int64_t>(c.rows.size());
    for (int64_t take : {int64_t{1}, count / 3, count}) {
      if (take < 1) continue;
      double expected_sum = 0.0, actual_sum = 0.0;
      int64_t expected_exact = 0, actual_exact = 0;
      scalar.probe_score_sum(intercept, coefficients.data(), c.columns, c.y,
                             c.rows.data(), take, tolerance, &expected_sum,
                             &expected_exact);
      simd.probe_score_sum(intercept, coefficients.data(), c.columns, c.y,
                           c.rows.data(), take, tolerance, &actual_sum,
                           &actual_exact);
      ASSERT_EQ(std::memcmp(&expected_sum, &actual_sum, sizeof(double)), 0)
          << "seed " << seed << " take " << take;
      ASSERT_EQ(expected_exact, actual_exact)
          << "seed " << seed << " take " << take;
      // The ŷ + Σ chain replays the reference probe error chain exactly.
      double error_sum = ProbeAbsErrorSum(intercept, coefficients.data(),
                                          c.columns, c.y, c.rows.data(), take);
      ASSERT_EQ(std::memcmp(&expected_sum, &error_sum, sizeof(double)), 0)
          << "seed " << seed << " take " << take;
    }
  }
}

TEST(KernelParityTest, GatherBitIdentical) {
  const Kernel& scalar = ScalarKernel();
  const Kernel& simd = SimdKernel();
  std::mt19937_64 rng(1234);
  std::vector<double> src = AdversarialColumn(500, rng);
  std::vector<int64_t> rows = MakeRows(500, /*subset=*/true, rng);
  for (int64_t stride : {1L, 2L, 5L}) {
    std::vector<double> expected(rows.size() * static_cast<size_t>(stride), -1.0);
    std::vector<double> actual = expected;
    scalar.gather(src.data(), rows.data(), static_cast<int64_t>(rows.size()),
                  expected.data(), stride);
    simd.gather(src.data(), rows.data(), static_cast<int64_t>(rows.size()),
                actual.data(), stride);
    ASSERT_EQ(std::memcmp(expected.data(), actual.data(),
                          expected.size() * sizeof(double)),
              0)
        << "stride " << stride;
  }
}

// --- Registry, dispatch, and the compensated-summation oracle ---------------

TEST(KernelParityTest, ParseAndResolveBackends) {
  EXPECT_TRUE(kernels::ParseKernelBackend("auto").ok());
  EXPECT_TRUE(kernels::ParseKernelBackend("scalar").ok());
  EXPECT_TRUE(kernels::ParseKernelBackend("simd").ok());
  EXPECT_TRUE(kernels::ParseKernelBackend("avx512").status().IsInvalidArgument());
  EXPECT_TRUE(kernels::ParseKernelBackend("").status().IsInvalidArgument());

  EXPECT_STREQ(
      kernels::ResolveKernel(kernels::KernelBackend::kScalar).name, "scalar");
  // kAuto and kSimd resolve to the same kernel (the vectorized one, or the
  // scalar fallback on hardware the build's ISA excludes — never null).
  EXPECT_EQ(&kernels::ResolveKernel(kernels::KernelBackend::kAuto),
            &kernels::ResolveKernel(kernels::KernelBackend::kSimd));
}

TEST(KernelParityTest, ActiveKernelInstallAndDispatch) {
  // The dispatching entry points follow the installed kernel; because the
  // kernels are bit-identical, both installations produce the same stats.
  std::mt19937_64 rng(99);
  ShapeCase c = MakeShapeCase(100, 3, /*subset=*/false, rng);
  const Kernel& scalar_installed =
      kernels::SetActiveKernel(kernels::KernelBackend::kScalar);
  EXPECT_STREQ(scalar_installed.name, "scalar");
  SufficientStats via_scalar = AccumulateRowBlocks(c.columns, c.y, c.rows, 16);
  const Kernel& simd_installed =
      kernels::SetActiveKernel(kernels::KernelBackend::kSimd);
  EXPECT_EQ(&kernels::ActiveKernel(), &simd_installed);
  SufficientStats via_simd = AccumulateRowBlocks(c.columns, c.y, c.rows, 16);
  EXPECT_TRUE(via_simd.BitIdenticalTo(via_scalar));
  kernels::SetActiveKernel(kernels::KernelBackend::kAuto);
}

TEST(KernelParityTest, NeumaierSumIsAnAccuracyOracleNotAKernel) {
  // Compensated summation recovers the small addend a naive fold loses —
  // which is exactly why it may never back a canonical fold: it computes
  // *different bits* than the contract fixes. It serves as the harness's
  // accuracy oracle instead.
  std::vector<double> values = {1e16, 1.0, -1e16};
  double naive = 0.0;
  for (double v : values) naive += v;
  EXPECT_EQ(naive, 0.0);  // the 1.0 is absorbed
  EXPECT_EQ(kernels::NeumaierSum(values.data(), 3), 1.0);

  // On benign data the canonical fold agrees with the oracle to high
  // relative accuracy — the headroom claim of the bench grid.
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::vector<double> benign(4096);
  for (double& v : benign) v = unit(rng);
  double plain = 0.0;
  for (double v : benign) plain += v;
  double compensated = kernels::NeumaierSum(benign.data(), 4096);
  EXPECT_NEAR(plain, compensated, 1e-10);
}

}  // namespace
}  // namespace charles
