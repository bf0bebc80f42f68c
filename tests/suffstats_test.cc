#include "linalg/suffstats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "core/engine.h"
#include "linalg/matrix.h"
#include "linalg/score_partials.h"
#include "ml/linear_regression.h"
#include "workload/employee_gen.h"
#include "workload/policy.h"

namespace charles {
namespace {

/// A well-conditioned regression fixture with deliberately large feature
/// means (mean >> spread): the regime where naive uncentered normal
/// equations lose digits, so parity here exercises the shifted accumulation.
struct Fixture {
  Matrix x;
  std::vector<double> y;
  std::vector<std::string> names;
};

Fixture MakeWellConditioned(int64_t n, int64_t p, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> spread(-1.0, 1.0);
  Fixture f;
  f.x = Matrix(n, p);
  f.y.resize(static_cast<size_t>(n));
  std::vector<double> truth(static_cast<size_t>(p));
  for (int64_t c = 0; c < p; ++c) {
    truth[static_cast<size_t>(c)] = 0.5 + 0.25 * static_cast<double>(c);
    f.names.push_back("f" + std::to_string(c));
  }
  for (int64_t r = 0; r < n; ++r) {
    double target = 1000.0;  // intercept
    for (int64_t c = 0; c < p; ++c) {
      // Mean ~ 5000·(c+1), spread ~ 100: large-mean regime.
      double v = 5000.0 * static_cast<double>(c + 1) + 100.0 * spread(rng);
      f.x.At(r, c) = v;
      target += truth[static_cast<size_t>(c)] * v;
    }
    f.y[static_cast<size_t>(r)] = target + 0.01 * spread(rng);  // mild noise
  }
  return f;
}

SufficientStats AccumulateAll(const Fixture& f) {
  SufficientStats stats(f.x.cols());
  for (int64_t r = 0; r < f.x.rows(); ++r) {
    stats.Accumulate(f.x.RowPtr(r), f.y[static_cast<size_t>(r)]);
  }
  return stats;
}

TEST(SuffStatsParityTest, MatchesQrOnWellConditionedFixtures) {
  for (int64_t p : {1, 2, 3, 5}) {
    Fixture f = MakeWellConditioned(400, p, 7 + static_cast<uint64_t>(p));
    SufficientStats stats = AccumulateAll(f);

    LinearModel qr = LinearRegression::Fit(f.x, f.y, f.names).ValueOrDie();
    std::vector<int> all;
    for (int64_t c = 0; c < p; ++c) all.push_back(static_cast<int>(c));
    LinearModel fast =
        LinearRegression::FitFromStats(stats, all, f.names).ValueOrDie();

    ASSERT_EQ(fast.coefficients.size(), qr.coefficients.size()) << "p=" << p;
    for (int64_t c = 0; c < p; ++c) {
      EXPECT_NEAR(fast.coefficients[static_cast<size_t>(c)],
                  qr.coefficients[static_cast<size_t>(c)], 1e-9)
          << "p=" << p << " c=" << c;
    }
    EXPECT_NEAR(fast.intercept, qr.intercept,
                1e-9 * std::max(1.0, std::abs(qr.intercept)))
        << "p=" << p;
    EXPECT_NEAR(fast.r2, qr.r2, 1e-9) << "p=" << p;
    // SSE = Syy − βᵀSxy cancels when R² ≈ 1, so the moments-only rmse
    // carries a few more ULPs of Syy than the row-level one.
    EXPECT_NEAR(fast.rmse, qr.rmse, 1e-6 * std::max(1e-3, qr.rmse)) << "p=" << p;
  }
}

TEST(SuffStatsParityTest, SubsetSolvesMatchQrOnMaterializedSubsets) {
  // One accumulation over the full feature set answers every subset — the
  // engine's cross-T reuse. Each subset solve must match a QR fit on the
  // subset's own materialized matrix.
  const int64_t p = 4;
  Fixture f = MakeWellConditioned(300, p, 11);
  SufficientStats stats = AccumulateAll(f);

  const std::vector<std::vector<int>> subsets = {{0}, {2}, {1, 3}, {3, 0}, {0, 1, 2}};
  for (const std::vector<int>& subset : subsets) {
    Matrix sub(f.x.rows(), static_cast<int64_t>(subset.size()));
    std::vector<std::string> names;
    for (size_t c = 0; c < subset.size(); ++c) {
      names.push_back(f.names[static_cast<size_t>(subset[c])]);
      for (int64_t r = 0; r < f.x.rows(); ++r) {
        sub.At(r, static_cast<int64_t>(c)) = f.x.At(r, subset[c]);
      }
    }
    LinearModel qr = LinearRegression::Fit(sub, f.y, names).ValueOrDie();
    LinearModel fast = LinearRegression::FitFromStats(stats, subset, names).ValueOrDie();
    for (size_t c = 0; c < subset.size(); ++c) {
      EXPECT_NEAR(fast.coefficients[c], qr.coefficients[c], 1e-9);
    }
    EXPECT_NEAR(fast.intercept, qr.intercept, 1e-9);
    EXPECT_NEAR(fast.r2, qr.r2, 1e-9);
  }
}

TEST(SuffStatsParityTest, ProjectThenSolveEqualsSubsetSolve) {
  Fixture f = MakeWellConditioned(200, 4, 13);
  SufficientStats stats = AccumulateAll(f);
  const std::vector<int> subset = {1, 3};
  SufficientStats::Solution direct = stats.SolveOls(subset).ValueOrDie();
  SufficientStats::Solution projected = stats.Project(subset).SolveOls().ValueOrDie();
  // Project copies the very same moments the subset solve reads, so the two
  // answers are bit-identical, not merely close.
  EXPECT_EQ(direct.intercept, projected.intercept);
  ASSERT_EQ(direct.coefficients.size(), projected.coefficients.size());
  for (size_t c = 0; c < direct.coefficients.size(); ++c) {
    EXPECT_EQ(direct.coefficients[c], projected.coefficients[c]);
  }
  EXPECT_EQ(direct.r2, projected.r2);
  EXPECT_EQ(direct.rmse, projected.rmse);
}

TEST(SuffStatsParityTest, MergeOfDisjointChunksMatchesBulkAccumulation) {
  Fixture f = MakeWellConditioned(350, 3, 17);
  SufficientStats bulk = AccumulateAll(f);

  // Three chunks with three different shift points, merged in order.
  SufficientStats merged(3);
  for (int64_t begin : {0, 100, 220}) {
    int64_t end = begin == 0 ? 100 : (begin == 100 ? 220 : 350);
    SufficientStats chunk(3);
    for (int64_t r = begin; r < end; ++r) {
      chunk.Accumulate(f.x.RowPtr(r), f.y[static_cast<size_t>(r)]);
    }
    ASSERT_TRUE(merged.Merge(chunk).ok());
  }
  EXPECT_EQ(merged.n(), bulk.n());
  EXPECT_NEAR(merged.MeanY(), bulk.MeanY(), 1e-9 * std::abs(bulk.MeanY()));
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(merged.MeanX(i), bulk.MeanX(i), 1e-9 * std::abs(bulk.MeanX(i)));
    EXPECT_NEAR(merged.Sxy(i), bulk.Sxy(i), 1e-6 * std::abs(bulk.Sxy(i)) + 1e-6);
    for (int64_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(merged.Sxx(i, j), bulk.Sxx(i, j),
                  1e-6 * std::abs(bulk.Sxx(i, j)) + 1e-6);
    }
  }
  SufficientStats::Solution a = merged.SolveOls().ValueOrDie();
  SufficientStats::Solution b = bulk.SolveOls().ValueOrDie();
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_NEAR(a.coefficients[c], b.coefficients[c], 1e-9);
  }
  EXPECT_NEAR(a.intercept, b.intercept, 1e-9 * std::abs(b.intercept));

  // Merging a feature-count mismatch must fail, not corrupt.
  SufficientStats wrong(2);
  EXPECT_FALSE(merged.Merge(wrong).ok());
}

TEST(SuffStatsParityTest, RankDeficientFixtureFailsOverToQrLadder) {
  // Two identical columns: the centered normal equations are singular. The
  // stats solve must refuse (that is the fallback trigger), while the
  // row-level ladder still answers (QR detects the deficiency and ridge
  // resolves it) — exactly what FitLeaf does on this failure.
  const int64_t n = 50;
  Matrix x(n, 2);
  std::vector<double> y(static_cast<size_t>(n));
  std::vector<std::string> names = {"a", "a_copy"};
  for (int64_t r = 0; r < n; ++r) {
    double v = 10.0 + static_cast<double>(r);
    x.At(r, 0) = v;
    x.At(r, 1) = v;
    y[static_cast<size_t>(r)] = 3.0 * v + 7.0;
  }
  SufficientStats stats(2);
  for (int64_t r = 0; r < n; ++r) stats.Accumulate(x.RowPtr(r), y[static_cast<size_t>(r)]);

  Result<LinearModel> fast = LinearRegression::FitFromStats(stats, {0, 1}, names);
  ASSERT_FALSE(fast.ok());
  EXPECT_EQ(fast.status().code(), StatusCode::kInvalidArgument);

  Result<LinearModel> ladder = LinearRegression::Fit(x, y, names);
  ASSERT_TRUE(ladder.ok());  // ridge fallback produces a finite model
  EXPECT_TRUE(std::isfinite(ladder->intercept));
}

TEST(SuffStatsParityTest, UnderdeterminedAndEmptySystems) {
  SufficientStats stats(3);
  EXPECT_FALSE(stats.SolveOls().ok());  // no rows

  double row[] = {1.0, 2.0, 3.0};
  stats.Accumulate(row, 5.0);
  // One row is a constant response: like LinearRegression::Fit, the solve
  // short-circuits to the mean instead of failing.
  SufficientStats::Solution single = stats.SolveOls().ValueOrDie();
  EXPECT_DOUBLE_EQ(single.intercept, 5.0);
  EXPECT_DOUBLE_EQ(single.coefficients[0], 0.0);

  // Two rows with distinct responses over three features: underdetermined.
  double row2[] = {2.0, 1.0, 4.0};
  stats.Accumulate(row2, 9.0);
  EXPECT_FALSE(stats.SolveOls().ok());  // n < p + 1

  // Intercept-only solve still works.
  SufficientStats::Solution only = stats.SolveOls(std::vector<int>{}).ValueOrDie();
  EXPECT_DOUBLE_EQ(only.intercept, 7.0);
}

TEST(SuffStatsParityTest, ConstantResponseShortCircuits) {
  SufficientStats stats(1);
  for (int64_t r = 0; r < 20; ++r) {
    double v = static_cast<double>(r);
    stats.Accumulate(&v, 4.25);
  }
  SufficientStats::Solution solution = stats.SolveOls().ValueOrDie();
  EXPECT_DOUBLE_EQ(solution.intercept, 4.25);
  EXPECT_DOUBLE_EQ(solution.coefficients[0], 0.0);
  EXPECT_DOUBLE_EQ(solution.r2, 1.0);
}

// ---------------------------------------------------------------------------
// Engine-level parity and determinism.
// ---------------------------------------------------------------------------

void ExpectIdenticalRuns(const SummaryList& expected, const SummaryList& actual) {
  ASSERT_EQ(expected.summaries.size(), actual.summaries.size());
  for (size_t i = 0; i < expected.summaries.size(); ++i) {
    EXPECT_EQ(expected.summaries[i].Signature(), actual.summaries[i].Signature());
    EXPECT_EQ(expected.summaries[i].scores().score, actual.summaries[i].scores().score);
    EXPECT_EQ(expected.summaries[i].ToString(), actual.summaries[i].ToString());
  }
  EXPECT_EQ(expected.labelings, actual.labelings);
  EXPECT_EQ(expected.partitions, actual.partitions);
  EXPECT_EQ(expected.candidates_evaluated, actual.candidates_evaluated);
}

struct EmployeeWorkload {
  Table source;
  Table target;
};

EmployeeWorkload MakeEmployeeWorkload(int64_t rows) {
  EmployeeGenOptions gen;
  gen.num_rows = rows;
  gen.num_decoy_numeric = 1;
  gen.num_decoy_categorical = 1;
  Table source = GenerateEmployees(gen).ValueOrDie();
  Table target = MakeEmployeeBonusPolicy().Apply(source).ValueOrDie();
  return EmployeeWorkload{std::move(source), std::move(target)};
}

CharlesOptions EmployeeOptions() {
  CharlesOptions options;
  options.target_attribute = "bonus";
  options.key_columns = {"emp_id"};
  return options;
}

TEST(SuffStatsEngineTest, ParallelBitIdenticalToSerialAt128Threads) {
  // The fast path's determinism contract: per-leaf moments are canonical
  // block folds, whatever range count the moments round splits them into, so
  // the ranked output at 2 and 8 threads is bit-identical to 1 thread.
  EmployeeWorkload workload = MakeEmployeeWorkload(500);
  CharlesOptions options = EmployeeOptions();
  options.num_threads = 1;
  SummaryList serial =
      SummarizeChanges(workload.source, workload.target, options).ValueOrDie();
  EXPECT_GT(serial.leaf_fits_computed, 0);

  for (int threads : {2, 8}) {
    options.num_threads = threads;
    SummaryList parallel =
        SummarizeChanges(workload.source, workload.target, options).ValueOrDie();
    EXPECT_EQ(parallel.threads_used, threads);
    ExpectIdenticalRuns(serial, parallel);
  }
}

// ---------------------------------------------------------------------------
// Canonical block-fold edges (ISSUE 7): empty ranges, exact block
// boundaries, and fold-order regressions for both currencies.
// ---------------------------------------------------------------------------

/// Deterministic columns with per-block magnitude contrast, so any change to
/// the fold's block order shows up in the folded bits.
struct BlockFoldFixture {
  std::vector<std::vector<double>> storage;
  std::vector<const std::vector<double>*> columns;
  std::vector<double> y;
  std::vector<int64_t> rows;
};

BlockFoldFixture MakeBlockFoldFixture(int64_t num_rows) {
  BlockFoldFixture f;
  std::vector<double> x(static_cast<size_t>(num_rows));
  f.y.resize(static_cast<size_t>(num_rows));
  for (int64_t r = 0; r < num_rows; ++r) {
    size_t i = static_cast<size_t>(r);
    // Magnitudes swing by ~1e16 between early and late blocks: reordered
    // merges hit different absorption points and cannot reproduce the bits.
    double scale = (r < num_rows / 3) ? 1e8 : (r < 2 * num_rows / 3 ? 1.0 : 1e-8);
    x[i] = scale * (1.0 + 0.37 * static_cast<double>(r % 13));
    f.y[i] = scale * (2.0 - 0.11 * static_cast<double>(r % 7));
    f.rows.push_back(r);
  }
  f.storage.push_back(std::move(x));
  f.columns.push_back(&f.storage[0]);
  return f;
}

TEST(SuffStatsBlockFoldTest, EmptyRangeYieldsFreshStats) {
  BlockFoldFixture f = MakeBlockFoldFixture(10);
  SufficientStats from_range = AccumulateRangeBlocks(f.columns, f.y, 0, 64);
  SufficientStats from_rows = AccumulateRowBlocks(f.columns, f.y, {}, 64);
  SufficientStats fresh(1);
  EXPECT_EQ(from_range.n(), 0);
  EXPECT_TRUE(from_range.BitIdenticalTo(fresh));
  EXPECT_TRUE(from_rows.BitIdenticalTo(fresh));
}

TEST(SuffStatsBlockFoldTest, RangeEndingExactlyOnBlockBoundary) {
  // 128 rows in 64-row blocks: two full blocks, no tail. The fold must be
  // exactly the two-block merge — and identical whether the last block is
  // full (128) or short (120 leaves a 56-row tail behind boundary 64).
  BlockFoldFixture f = MakeBlockFoldFixture(128);
  SufficientStats folded = AccumulateRangeBlocks(f.columns, f.y, 128, 64);
  std::vector<int64_t> first(f.rows.begin(), f.rows.begin() + 64);
  std::vector<int64_t> second(f.rows.begin() + 64, f.rows.end());
  SufficientStats manual(1);
  ASSERT_TRUE(manual.Merge(AccumulateRows(f.columns, f.y, first.data(), 64)).ok());
  ASSERT_TRUE(manual.Merge(AccumulateRows(f.columns, f.y, second.data(), 64)).ok());
  EXPECT_TRUE(folded.BitIdenticalTo(manual));
  EXPECT_EQ(folded.n(), 128);
}

TEST(SuffStatsBlockFoldTest, FoldOrderRegression) {
  // The canonical fold merges per-block partials in ascending block order.
  // This test pins that order twice over: the entry point must equal the
  // explicit ascending fold bit-for-bit, and a descending fold of the very
  // same partials must NOT — so anyone who reorders the canonical block
  // loop (or "optimizes" the merge order) trips this immediately.
  BlockFoldFixture f = MakeBlockFoldFixture(96);
  const int64_t block_rows = 16;
  SufficientStats canonical =
      AccumulateRowBlocks(f.columns, f.y, f.rows, block_rows);

  std::vector<SufficientStats> partials;
  ForEachRowBlock(f.rows.data(), static_cast<int64_t>(f.rows.size()),
                  block_rows,
                  [&](int64_t /*block*/, const int64_t* ptr, int64_t count) {
                    partials.push_back(AccumulateRows(f.columns, f.y, ptr, count));
                  });
  ASSERT_GE(partials.size(), 3u);

  SufficientStats ascending(1);
  for (const SufficientStats& partial : partials) {
    ASSERT_TRUE(ascending.Merge(partial).ok());
  }
  EXPECT_TRUE(canonical.BitIdenticalTo(ascending));

  SufficientStats descending(1);
  for (auto it = partials.rbegin(); it != partials.rend(); ++it) {
    ASSERT_TRUE(descending.Merge(*it).ok());
  }
  EXPECT_FALSE(canonical.BitIdenticalTo(descending))
      << "fixture failed to distinguish fold orders — strengthen it";
}

// The canonical L1 error fold — the Σ|a − b| component of
// AccumulateScoreDiffBlocks, which SnapModel's accuracy guard and every leaf
// score read — at its edges. The within-band tally is pinned elsewhere
// (score_partials_test.cc); a zero band keeps it out of the way here.

TEST(ErrorPartialsEdgeTest, EmptyRangeYieldsZeroPartials) {
  ScorePartials diff = AccumulateScoreDiffBlocks({}, {}, {}, 64, 0.0);
  EXPECT_EQ(diff.n, 0);
  EXPECT_EQ(diff.abs_error_sum, 0.0);
  EXPECT_EQ(diff.mae(), 0.0);
}

TEST(ErrorPartialsEdgeTest, RangeEndingExactlyOnBlockBoundary) {
  // rows 0..127 in 64-row blocks: exactly two blocks, no tail — the fold is
  // the two block sums merged in order.
  std::vector<int64_t> rows;
  std::vector<double> a, b;
  for (int64_t r = 0; r < 128; ++r) {
    rows.push_back(r);
    a.push_back(1.0 + 0.5 * static_cast<double>(r));
    b.push_back(0.25 * static_cast<double>(r % 9));
  }
  ScorePartials folded = AccumulateScoreDiffBlocks(a, b, rows, 64, 0.0);
  EXPECT_EQ(folded.n, 128);
  ScorePartials manual;
  for (int64_t base : {int64_t{0}, int64_t{64}}) {
    ScorePartials block;
    for (int64_t i = base; i < base + 64; ++i) {
      block.Accumulate(a[static_cast<size_t>(i)], b[static_cast<size_t>(i)], 0.0);
    }
    manual.Merge(block);
  }
  EXPECT_TRUE(folded.BitIdenticalTo(manual));
}

TEST(ErrorPartialsEdgeTest, SingleRowBlocksMatchSerialSum) {
  // block_rows = 1 degenerates every block to one row; the left-to-right
  // merge then replays the plain serial sum exactly.
  std::vector<int64_t> rows = {0, 1, 2, 3, 4};
  std::vector<double> values = {3.0, -1.5, 0.25, -0.125, 7.0};
  std::vector<double> zeros(values.size(), 0.0);
  ScorePartials folded = AccumulateScoreDiffBlocks(values, zeros, rows, 1, 0.0);
  ScorePartials serial;
  for (double v : values) serial.Accumulate(v, 0.0, 0.0);
  EXPECT_TRUE(folded.BitIdenticalTo(serial));
}

TEST(ErrorPartialsEdgeTest, FoldOrderRegression) {
  // 1.0 then two half-ulps: folded ascending the half-ulps are absorbed
  // (round-to-even), descending they first combine into a representable ulp
  // — so the two orders differ by exactly one bit, and any reordering of
  // the canonical block loop trips here.
  const double half_ulp = 1.1102230246251565e-16;  // 2^-53
  std::vector<int64_t> rows = {0, 1, 2};
  std::vector<double> values = {1.0, half_ulp, half_ulp};
  std::vector<double> zeros(values.size(), 0.0);
  ScorePartials canonical = AccumulateScoreDiffBlocks(values, zeros, rows, 1, 0.0);
  EXPECT_EQ(canonical.abs_error_sum, 1.0);

  ScorePartials reversed;
  for (auto it = values.rbegin(); it != values.rend(); ++it) {
    ScorePartials block;
    block.Accumulate(*it, 0.0, 0.0);
    reversed.Merge(block);
  }
  EXPECT_GT(reversed.abs_error_sum, 1.0);
  EXPECT_FALSE(canonical.BitIdenticalTo(reversed));
}

}  // namespace
}  // namespace charles
