/// \file
/// Fold-reference harness: every production block fold must reproduce a
/// test-local reference copy of the per-block loops exactly — per block, per
/// fold, per op — for hundreds of seeded (rows × cols × block_size) shapes,
/// including tail blocks shorter than the block size, single-row blocks,
/// sparse index subsets, and adversarial magnitudes (1e±30 mixes,
/// denormals, negative zeros). This harness is what makes the folds safe to
/// rewrite: any reassociation, contraction, or accumulation shortcut that
/// changes even one bit of one block fails here.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "linalg/score_partials.h"
#include "linalg/suffstats.h"

namespace charles {
namespace {

// --- The reference loops ------------------------------------------------------
//
// Verbatim copies of the per-block loops the library runs, kept here so the
// harness checks the production folds against a fixed definition of the
// correct bits rather than against themselves.

/// One block of moments: each row's features gathered in column order, then
/// accumulated in row order into fresh stats. `rows` null means the
/// contiguous block [base, base + count).
SufficientStats RefSuffStatsBlock(
    const std::vector<const std::vector<double>*>& columns,
    const std::vector<double>& y, const int64_t* rows, int64_t base,
    int64_t count) {
  SufficientStats stats(static_cast<int64_t>(columns.size()));
  std::vector<double> features(columns.size());
  for (int64_t r = 0; r < count; ++r) {
    size_t row = static_cast<size_t>(rows != nullptr ? rows[r] : base + r);
    for (size_t f = 0; f < columns.size(); ++f) features[f] = (*columns[f])[row];
    stats.Accumulate(features.data(), y[row]);
  }
  return stats;
}

double RefAbsDiffSum(const double* a, const double* b, int64_t count) {
  double sum = 0.0;
  for (int64_t i = 0; i < count; ++i) sum += std::abs(a[i] - b[i]);
  return sum;
}

void RefScoreDiffSum(const double* a, const double* b, int64_t count,
                     double tolerance, double* abs_sum, int64_t* exact) {
  double sum = 0.0;
  int64_t within = 0;
  for (int64_t i = 0; i < count; ++i) {
    const double err = std::abs(a[i] - b[i]);
    sum += err;
    if (err <= tolerance) ++within;
  }
  *abs_sum = sum;
  *exact = within;
}

/// The reference block structure: calls `fn(lo, count)` for each maximal
/// run rows[lo, lo + count) falling in one block of size `block_rows`.
template <typename Fn>
void RefForEachBlock(const std::vector<int64_t>& rows, int64_t block_rows,
                     Fn&& fn) {
  size_t lo = 0;
  while (lo < rows.size()) {
    size_t hi = lo + 1;
    while (hi < rows.size() && rows[hi] / block_rows == rows[lo] / block_rows) {
      ++hi;
    }
    fn(static_cast<int64_t>(lo), static_cast<int64_t>(hi - lo));
    lo = hi;
  }
}

/// Reference canonical moments: per-block partials merged in block order.
SufficientStats RefRowBlocks(
    const std::vector<const std::vector<double>*>& columns,
    const std::vector<double>& y, const std::vector<int64_t>& rows,
    int64_t block_rows) {
  SufficientStats merged(static_cast<int64_t>(columns.size()));
  RefForEachBlock(rows, block_rows, [&](int64_t lo, int64_t count) {
    EXPECT_TRUE(merged
                    .Merge(RefSuffStatsBlock(columns, y, rows.data() + lo,
                                             /*base=*/0, count))
                    .ok());
  });
  return merged;
}

/// Reference canonical moments over the contiguous range [0, num_rows).
SufficientStats RefRangeBlocks(
    const std::vector<const std::vector<double>*>& columns,
    const std::vector<double>& y, int64_t num_rows, int64_t block_rows) {
  SufficientStats merged(static_cast<int64_t>(columns.size()));
  for (int64_t begin = 0; begin < num_rows; begin += block_rows) {
    int64_t count = std::min(block_rows, num_rows - begin);
    EXPECT_TRUE(merged
                    .Merge(RefSuffStatsBlock(columns, y, /*rows=*/nullptr,
                                             begin, count))
                    .ok());
  }
  return merged;
}

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
      SufficientStats expected = RefRowBlocks(c.columns, c.y, c.rows, block_rows);
      SufficientStats actual =
          AccumulateRowBlocks(c.columns, c.y, c.rows, block_rows);
      ASSERT_TRUE(actual.BitIdenticalTo(expected))
          << "seed " << seed << " rows " << num_rows << " cols " << num_cols
          << " block " << block_rows << " subset " << subset;
      ++shapes_checked;
    }
  }
  EXPECT_GE(shapes_checked, 1000);  // "hundreds of shapes" and then some
}

TEST(KernelParityTest, ContiguousRangeFoldBitIdentical) {
  for (uint64_t seed = 0; seed < 50; ++seed) {
    std::mt19937_64 rng(seed * 104729 + 5);
    int64_t num_rows = 1 + static_cast<int64_t>(rng() % 300);
    int64_t num_cols = 1 + static_cast<int64_t>(rng() % 5);
    ShapeCase c = MakeShapeCase(num_rows, num_cols, /*subset=*/false, rng);
    for (int64_t block_rows : {1L, 5L, 32L, num_rows, num_rows + 1}) {
      SufficientStats expected =
          RefRangeBlocks(c.columns, c.y, num_rows, block_rows);
      SufficientStats actual =
          AccumulateRangeBlocks(c.columns, c.y, num_rows, block_rows);
      ASSERT_TRUE(actual.BitIdenticalTo(expected))
          << "seed " << seed << " rows " << num_rows << " block " << block_rows;
      // And the range fold must equal the indexed fold over the identity
      // index set — the contract that lets shards address blocks either way.
      std::vector<int64_t> identity(static_cast<size_t>(num_rows));
      for (int64_t r = 0; r < num_rows; ++r) identity[static_cast<size_t>(r)] = r;
      SufficientStats indexed =
          AccumulateRowBlocks(c.columns, c.y, identity, block_rows);
      ASSERT_TRUE(indexed.BitIdenticalTo(actual))
          << "seed " << seed << " block " << block_rows;
    }
  }
}

TEST(KernelParityTest, SingleBlockPrimitiveBitIdentical) {
  // The raw block primitive (one fresh partial per call), including the
  // single-row and empty-block edges.
  for (uint64_t seed = 0; seed < 50; ++seed) {
    std::mt19937_64 rng(seed * 31 + 7);
    int64_t num_rows = 1 + static_cast<int64_t>(rng() % 80);
    int64_t num_cols = static_cast<int64_t>(rng() % 5);
    ShapeCase c = MakeShapeCase(num_rows, num_cols, /*subset=*/true, rng);
    int64_t count = static_cast<int64_t>(c.rows.size());
    for (int64_t take : {int64_t{0}, int64_t{1}, count / 2, count}) {
      SufficientStats expected =
          RefSuffStatsBlock(c.columns, c.y, c.rows.data(), /*base=*/0, take);
      SufficientStats actual = AccumulateRows(c.columns, c.y, c.rows.data(), take);
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
  // stats must be bit-identical to the central reference fold.
  for (uint64_t seed = 0; seed < 60; ++seed) {
    std::mt19937_64 rng(seed * 13 + 3);
    int64_t num_rows = 16 + static_cast<int64_t>(rng() % 200);
    int64_t num_cols = 1 + static_cast<int64_t>(rng() % 4);
    int64_t block_rows = 1 + static_cast<int64_t>(rng() % 32);
    ShapeCase c = MakeShapeCase(num_rows, num_cols, /*subset=*/true, rng);

    SufficientStats expected = RefRowBlocks(c.columns, c.y, c.rows, block_rows);

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
                            merged.Merge(AccumulateRows(c.columns, c.y, ptr, n))
                                .ok());
                      });
    }
    ASSERT_TRUE(merged.BitIdenticalTo(expected))
        << "seed " << seed << " split at row " << boundary_row;
  }
}

// --- ScorePartials folds ------------------------------------------------------

TEST(KernelParityTest, ScoreDiffSumBitIdenticalAndSumMatchesAbsDiff) {
  for (uint64_t seed = 0; seed < 100; ++seed) {
    std::mt19937_64 rng(seed * 433 + 5);
    int64_t num_rows = 1 + static_cast<int64_t>(rng() % 400);
    std::vector<int64_t> rows = MakeRows(num_rows, (rng() % 2) == 0, rng);
    std::vector<double> a = AdversarialColumn(static_cast<int64_t>(rows.size()), rng);
    std::vector<double> b = AdversarialColumn(static_cast<int64_t>(rows.size()), rng);
    // Spread the band across the adversarial decades so some seeds tally
    // nothing, some everything, most a genuine mix.
    double tolerance = std::pow(10.0, static_cast<int>(rng() % 61) - 30);
    // Every fifth error sits exactly on the band edge, which counts as
    // within it.
    for (size_t i = 0; i < a.size(); i += 5) {
      a[i] = tolerance;
      b[i] = 0.0;
    }
    for (int64_t block_rows : {1L, 7L, 64L, num_rows + 1}) {
      ScorePartials expected;
      RefForEachBlock(rows, block_rows, [&](int64_t lo, int64_t count) {
        ScorePartials block;
        RefScoreDiffSum(a.data() + lo, b.data() + lo, count, tolerance,
                        &block.abs_error_sum, &block.exact_count);
        block.n = count;
        expected.Merge(block);
      });
      ScorePartials actual =
          AccumulateScoreDiffBlocks(a, b, rows, block_rows, tolerance);
      ASSERT_TRUE(actual.BitIdenticalTo(expected))
          << "seed " << seed << " block " << block_rows;
      // The Σ chain is the plain L1 fold's chain — per-block Σ|a − b| from
      // zero, merged left to right — which is what lets SnapModel take its
      // accuracy-guard baseline from this fold.
      double l1 = 0.0;
      RefForEachBlock(rows, block_rows, [&](int64_t lo, int64_t count) {
        l1 += RefAbsDiffSum(a.data() + lo, b.data() + lo, count);
      });
      ASSERT_EQ(std::memcmp(&actual.abs_error_sum, &l1, sizeof(double)), 0)
          << "seed " << seed << " block " << block_rows;
    }
  }
}

}  // namespace
}  // namespace charles
