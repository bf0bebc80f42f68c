/// \file
/// ScorePartials: the block-folded accuracy currency behind row-free
/// scoring. The properties under test are the ones the engine's determinism
/// contract leans on: block-aligned merge splits reproduce the whole fold's
/// bits exactly (the per-leaf merge identity); the exact count is
/// order-free (equal under every block size); and the degenerate
/// single-chain fold replays a serial row scan bitwise (what keeps
/// Scorer::Accuracy and AccuracyFromPartials interchangeable). All of it
/// under adversarial magnitudes — huge/tiny decades, denormals, signed
/// zeros — where any reassociation shows up immediately.

#include "linalg/score_partials.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "core/scoring.h"

namespace charles {
namespace {

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
      return std::numeric_limits<double>::denorm_min() *
             static_cast<double>(1 + rng() % 1000);
    case 6:
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

/// Ascending global rows, either dense or a random subset (leaves are
/// subsets; subsets fragment the per-block runs).
std::vector<int64_t> MakeRows(int64_t n, bool subset, std::mt19937_64& rng) {
  std::vector<int64_t> rows;
  for (int64_t r = 0; r < n; ++r) {
    if (!subset || rng() % 3 != 0) rows.push_back(r);
  }
  if (rows.empty()) rows.push_back(n / 2);
  return rows;
}

TEST(ScorePartialsTest, AccumulateTracksSumCountAndBand) {
  ScorePartials partials;
  partials.Accumulate(10.0, 10.0, 0.5);  // exact hit
  partials.Accumulate(10.0, 10.4, 0.5);  // inside the band
  partials.Accumulate(10.0, 12.0, 0.5);  // outside
  EXPECT_EQ(partials.n, 3);
  EXPECT_EQ(partials.exact_count, 2);
  EXPECT_DOUBLE_EQ(partials.abs_error_sum, 2.4);
  EXPECT_DOUBLE_EQ(partials.mae(), 0.8);
  EXPECT_DOUBLE_EQ(partials.exact_fraction(), 2.0 / 3.0);
}

TEST(ScorePartialsTest, BandBoundaryIsInclusive) {
  // |error| == tolerance counts as exact — the band is closed, matching the
  // row-scan definition in Scorer.
  ScorePartials partials;
  partials.Accumulate(1.0, 1.5, 0.5);
  EXPECT_EQ(partials.exact_count, 1);
}

TEST(ScorePartialsTest, SingleChainFoldReplaysSerialRowScanBitwise) {
  // With every row in one block the canonical fold is one serial chain —
  // exactly the row scan Scorer::Accuracy used to run. This is the identity
  // that makes AccuracyFromPartials a drop-in for the scan.
  for (uint64_t seed = 0; seed < 50; ++seed) {
    std::mt19937_64 rng(seed * 101 + 3);
    int64_t n = 1 + static_cast<int64_t>(rng() % 500);
    std::vector<int64_t> rows = MakeRows(n, (rng() % 2) == 0, rng);
    std::vector<double> y = AdversarialColumn(static_cast<int64_t>(rows.size()), rng);
    std::vector<double> y_hat =
        AdversarialColumn(static_cast<int64_t>(rows.size()), rng);
    double tolerance = std::pow(10.0, static_cast<int>(rng() % 61) - 30);
    ScorePartials scan;
    for (size_t i = 0; i < y.size(); ++i) {
      scan.Accumulate(y[i], y_hat[i], tolerance);
    }
    ScorePartials fold =
        AccumulateScoreDiffBlocks(y, y_hat, rows, /*block_rows=*/n + 1, tolerance);
    EXPECT_TRUE(fold.BitIdenticalTo(scan)) << "seed " << seed;
  }
}

TEST(ScorePartialsTest, ExactCountIsOrderFreeAcrossBlockSizes) {
  // The tally is an integer predicate count: every decomposition of the same
  // rows must agree exactly, whatever the Σ chain does.
  std::mt19937_64 rng(42);
  int64_t n = 777;
  std::vector<int64_t> rows = MakeRows(n, /*subset=*/true, rng);
  std::vector<double> y = AdversarialColumn(static_cast<int64_t>(rows.size()), rng);
  std::vector<double> y_hat =
      AdversarialColumn(static_cast<int64_t>(rows.size()), rng);
  double tolerance = 1e-2;
  ScorePartials reference =
      AccumulateScoreDiffBlocks(y, y_hat, rows, /*block_rows=*/n + 1, tolerance);
  for (int64_t block_rows : {1L, 3L, 17L, 64L, 256L}) {
    ScorePartials fold =
        AccumulateScoreDiffBlocks(y, y_hat, rows, block_rows, tolerance);
    EXPECT_EQ(fold.exact_count, reference.exact_count) << "block " << block_rows;
    EXPECT_EQ(fold.n, reference.n) << "block " << block_rows;
  }
}

TEST(ScorePartialsTest, BlockAlignedMergeSplitsReproduceWholeFoldBitwise) {
  // The shard-merge identity, replayed at the granularity it actually holds:
  // shards ship *per-block* partials and the coordinator merges them in
  // ascending block order. Split the rows at a block boundary, fold each
  // side's blocks independently, merge the block partials ascending — every
  // bit equal to the unsplit fold. (Merging two per-half aggregates instead
  // would re-associate the Σ chain; that is exactly why the wire carries
  // blocks, not shard totals.)
  auto fold_per_block = [](const std::vector<double>& y,
                           const std::vector<double>& y_hat,
                           const std::vector<int64_t>& rows, int64_t block_rows,
                           double tolerance,
                           std::vector<ScorePartials>* blocks) {
    size_t begin = 0;
    while (begin < rows.size()) {
      int64_t block = rows[begin] / block_rows;
      size_t end = begin;
      while (end < rows.size() && rows[end] / block_rows == block) ++end;
      std::vector<int64_t> block_row_ids(rows.begin() + begin, rows.begin() + end);
      std::vector<double> block_y(y.begin() + begin, y.begin() + end);
      std::vector<double> block_hat(y_hat.begin() + begin, y_hat.begin() + end);
      blocks->push_back(AccumulateScoreDiffBlocks(block_y, block_hat,
                                                  block_row_ids, block_rows,
                                                  tolerance));
      begin = end;
    }
  };
  for (uint64_t seed = 0; seed < 50; ++seed) {
    std::mt19937_64 rng(seed * 1709 + 13);
    int64_t n = 64 + static_cast<int64_t>(rng() % 600);
    int64_t block_rows = 1 + static_cast<int64_t>(rng() % 100);
    std::vector<int64_t> rows = MakeRows(n, (rng() % 2) == 0, rng);
    std::vector<double> y = AdversarialColumn(static_cast<int64_t>(rows.size()), rng);
    std::vector<double> y_hat =
        AdversarialColumn(static_cast<int64_t>(rows.size()), rng);
    double tolerance = std::pow(10.0, static_cast<int>(rng() % 21) - 10);
    ScorePartials whole =
        AccumulateScoreDiffBlocks(y, y_hat, rows, block_rows, tolerance);

    int64_t boundary_row =
        block_rows * (1 + static_cast<int64_t>(
                              rng() % static_cast<uint64_t>(n / block_rows + 1)));
    size_t split = 0;
    while (split < rows.size() && rows[split] < boundary_row) ++split;
    std::vector<int64_t> left_rows(rows.begin(), rows.begin() + split);
    std::vector<int64_t> right_rows(rows.begin() + split, rows.end());
    std::vector<double> left_y(y.begin(), y.begin() + split);
    std::vector<double> right_y(y.begin() + split, y.end());
    std::vector<double> left_hat(y_hat.begin(), y_hat.begin() + split);
    std::vector<double> right_hat(y_hat.begin() + split, y_hat.end());

    // Two "shards", each emitting per-block partials; the boundary is
    // block-aligned so every block lives wholly on one side.
    std::vector<ScorePartials> blocks;
    fold_per_block(left_y, left_hat, left_rows, block_rows, tolerance, &blocks);
    fold_per_block(right_y, right_hat, right_rows, block_rows, tolerance, &blocks);
    ScorePartials merged;
    for (const ScorePartials& block : blocks) merged.Merge(block);
    EXPECT_TRUE(merged.BitIdenticalTo(whole))
        << "seed " << seed << " boundary " << boundary_row;
  }
}

TEST(ScorePartialsTest, TailBlockShorterThanBlockSizeFoldsExactly) {
  // 100 rows at block 64: a full block plus a 36-row tail. The tail must be
  // folded as its own partial, not padded or skipped.
  std::vector<int64_t> rows;
  for (int64_t r = 0; r < 100; ++r) rows.push_back(r);
  std::vector<double> y(100, 1.0), y_hat(100, 1.25);
  ScorePartials fold = AccumulateScoreDiffBlocks(y, y_hat, rows, 64, 0.5);
  EXPECT_EQ(fold.n, 100);
  EXPECT_EQ(fold.exact_count, 100);
  ScorePartials scan;
  for (size_t i = 0; i < y.size(); ++i) scan.Accumulate(y[i], y_hat[i], 0.5);
  EXPECT_EQ(fold.exact_count, scan.exact_count);
  EXPECT_EQ(fold.n, scan.n);
}

// --- Scorer integration ------------------------------------------------------

CharlesOptions ScorerOptions() {
  CharlesOptions options;
  options.target_attribute = "bonus";
  options.key_columns = {"name"};
  return options;
}

TEST(ScorePartialsScorerTest, AccuracyFromPartialsMatchesRowScanBitwise) {
  for (uint64_t seed = 0; seed < 30; ++seed) {
    std::mt19937_64 rng(seed * 31 + 1);
    int64_t n = 1 + static_cast<int64_t>(rng() % 300);
    std::vector<double> y_old = AdversarialColumn(n, rng);
    std::vector<double> y_new = AdversarialColumn(n, rng);
    std::vector<double> y_hat = AdversarialColumn(n, rng);
    Scorer scorer(ScorerOptions(), y_old, y_new);
    // Fold with the scorer's own band and a single chain — the contract
    // every engine-side fold follows.
    ScorePartials partials;
    std::vector<int64_t> rows;
    for (int64_t r = 0; r < n; ++r) rows.push_back(r);
    partials = AccumulateScoreDiffBlocks(y_new, y_hat, rows, n + 1,
                                         scorer.exact_tolerance());
    double scan = scorer.Accuracy(y_hat);
    double from_partials = scorer.AccuracyFromPartials(partials);
    EXPECT_EQ(std::memcmp(&scan, &from_partials, sizeof(double)), 0)
        << "seed " << seed;
  }
}

TEST(ScorePartialsScorerTest, ExactToleranceIsTheScorerBand) {
  // band = max(numeric_tolerance, 0.1% of mean |y_new|): both regimes.
  std::vector<double> y_old = {0.0, 0.0};
  Scorer small(ScorerOptions(), y_old, {1e-9, 1e-9});
  CharlesOptions options = ScorerOptions();
  EXPECT_DOUBLE_EQ(small.exact_tolerance(), options.numeric_tolerance);
  Scorer large(ScorerOptions(), y_old, {2000.0, 2000.0});
  EXPECT_DOUBLE_EQ(large.exact_tolerance(), 2.0);  // 0.1% of mean |y_new|
  EXPECT_EQ(large.num_rows(), 2);
}

}  // namespace
}  // namespace charles
