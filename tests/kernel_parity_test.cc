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
#include <string>
#include <vector>

#include "core/partition_finder.h"
#include "distributed/backend.h"
#include "distributed/shard_planner.h"
#include "linalg/error_partials.h"
#include "linalg/score_partials.h"
#include "linalg/suffstats.h"
#include "table/table_builder.h"

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

double RefAbsSum(const double* values, int64_t count) {
  double sum = 0.0;
  for (int64_t i = 0; i < count; ++i) sum += std::abs(values[i]);
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

void RefProbeScoreSum(double intercept, const double* coefficients,
                      const std::vector<const std::vector<double>*>& columns,
                      const std::vector<double>& y, const int64_t* rows,
                      int64_t count, double tolerance, double* abs_sum,
                      int64_t* exact) {
  double sum = 0.0;
  int64_t within = 0;
  for (int64_t i = 0; i < count; ++i) {
    size_t row = static_cast<size_t>(rows[i]);
    double y_hat = intercept;
    for (size_t f = 0; f < columns.size(); ++f) {
      y_hat += coefficients[f] * (*columns[f])[row];
    }
    const double err = std::abs(y[row] - y_hat);
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

/// Reference canonical L1 fold; `block_sum(lo, count)` sums one block of
/// the positional arrays.
template <typename BlockSum>
ErrorPartials RefErrorBlocks(const std::vector<int64_t>& rows,
                             int64_t block_rows, BlockSum&& block_sum) {
  ErrorPartials total;
  RefForEachBlock(rows, block_rows, [&](int64_t lo, int64_t count) {
    ErrorPartials block;
    block.abs_error_sum = block_sum(lo, count);
    block.n = count;
    total.Merge(block);
  });
  return total;
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

// --- ErrorPartials folds -----------------------------------------------------

TEST(KernelParityTest, AbsDiffAndAbsFoldsBitIdentical) {
  for (uint64_t seed = 0; seed < 100; ++seed) {
    std::mt19937_64 rng(seed * 911 + 1);
    int64_t num_rows = 1 + static_cast<int64_t>(rng() % 400);
    std::vector<int64_t> rows = MakeRows(num_rows, (rng() % 2) == 0, rng);
    // Positional arrays: values[i] belongs to global row rows[i].
    std::vector<double> a = AdversarialColumn(static_cast<int64_t>(rows.size()), rng);
    std::vector<double> b = AdversarialColumn(static_cast<int64_t>(rows.size()), rng);
    for (int64_t block_rows : {1L, 7L, 64L, num_rows + 1}) {
      ErrorPartials expected_diff =
          RefErrorBlocks(rows, block_rows, [&](int64_t lo, int64_t count) {
            return RefAbsDiffSum(a.data() + lo, b.data() + lo, count);
          });
      ErrorPartials actual_diff = AccumulateAbsDiffBlocks(a, b, rows, block_rows);
      ASSERT_TRUE(actual_diff.BitIdenticalTo(expected_diff))
          << "seed " << seed << " block " << block_rows;
      ErrorPartials expected_abs =
          RefErrorBlocks(rows, block_rows, [&](int64_t lo, int64_t count) {
            return RefAbsSum(a.data() + lo, count);
          });
      ErrorPartials actual_abs = AccumulateAbsBlocks(a, rows, block_rows);
      ASSERT_TRUE(actual_abs.BitIdenticalTo(expected_abs))
          << "seed " << seed << " block " << block_rows;
    }
  }
}

// --- Probe folds (the kScorePartials shard kernel) ---------------------------

/// The reference probe error chain: ŷ = intercept + Σ_f c_f·x_f accumulated
/// left-to-right (LinearModel::PredictRow's order), then Σ|y − ŷ| in row
/// order from zero. The shard kernel's probe Σ must replay it bit for bit,
/// which is what lets a kScorePartials round double as the SnapModel error
/// baseline.
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

/// One probe evaluated by the production shard kernel: the shape's columns
/// become the shortlist, its rows the probe's leaf, and a one-shard plan
/// returns one ScorePartials per canonical block.
struct ProbeCase {
  ShapeCase shape;
  std::vector<std::string> shortlist;
  ColumnCache cache;
  RowSet leaf;
  ShardInput input;
  ShardTask task;
};

void MakeProbeCase(int64_t num_rows, int64_t num_cols, std::mt19937_64& rng,
                   ProbeCase* p) {
  p->shape = MakeShapeCase(num_rows, num_cols, /*subset=*/true, rng);
  // The table carries one extra column so it is never empty at p = 0.
  std::vector<Field> fields;
  for (int64_t f = 0; f <= num_cols; ++f) {
    fields.push_back(Field{"c" + std::to_string(f), TypeKind::kDouble, false});
  }
  TableBuilder builder(Schema::Make(fields).ValueOrDie());
  for (int64_t r = 0; r < num_rows; ++r) {
    std::vector<Value> row;
    for (int64_t f = 0; f < num_cols; ++f) {
      row.emplace_back(p->shape.column_storage[static_cast<size_t>(f)]
                                              [static_cast<size_t>(r)]);
    }
    row.emplace_back(0.0);
    builder.AppendRow(row).AbortIfNotOk();
  }
  Table table = builder.Finish().ValueOrDie();
  for (int64_t f = 0; f < num_cols; ++f) {
    p->shortlist.push_back("c" + std::to_string(f));
  }
  p->cache = ColumnCache::Build(table, p->shortlist).ValueOrDie();
  p->leaf = RowSet(p->shape.rows);
  p->input.shortlist = &p->shortlist;
  p->input.columns = &p->cache;
  p->input.y_old = &p->shape.y;
  p->input.y_new = &p->shape.y;
  p->input.leaves = {&p->leaf};

  ErrorProbe probe;
  probe.leaf = 0;
  probe.intercept = AdversarialValue(rng);
  for (int64_t f = 0; f < num_cols; ++f) {
    probe.features.push_back(f);
    probe.coefficients.push_back(AdversarialValue(rng));
  }
  p->task.kind = ShardTaskKind::kScorePartials;
  p->task.probes = {probe};
}

/// Runs the case's probe through the shard kernel at `block_rows`.
std::vector<std::pair<int64_t, ScorePartials>> ShardProbeBlocks(
    ProbeCase& p, int64_t block_rows, double tolerance) {
  p.task.score_tolerance = tolerance;
  ShardPlan plan = PlanShards(static_cast<int64_t>(p.shape.y.size()), block_rows,
                              /*requested_shards=*/1);
  Result<ShardTaskResult> result =
      ExecuteShardTaskKernel(p.input, plan, /*shard_index=*/0, p.task);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok() || result->score_probes.size() != 1) return {};
  return result->score_probes[0].blocks;
}

TEST(KernelParityTest, ProbeAbsErrorSumBitIdentical) {
  for (uint64_t seed = 0; seed < 100; ++seed) {
    std::mt19937_64 rng(seed * 2221 + 9);
    int64_t num_rows = 1 + static_cast<int64_t>(rng() % 300);
    int64_t num_cols = static_cast<int64_t>(rng() % 4);
    ProbeCase p;
    MakeProbeCase(num_rows, num_cols, rng, &p);
    const ErrorProbe& probe = p.task.probes[0];
    const std::vector<int64_t>& rows = p.shape.rows;
    for (int64_t block_rows : {1L, 7L, 64L, num_rows + 1}) {
      auto blocks = ShardProbeBlocks(p, block_rows, /*tolerance=*/0.0);
      size_t next = 0;
      RefForEachBlock(rows, block_rows, [&](int64_t lo, int64_t count) {
        ASSERT_LT(next, blocks.size());
        double expected =
            ProbeAbsErrorSum(probe.intercept, probe.coefficients.data(),
                             p.shape.columns, p.shape.y, rows.data() + lo, count);
        const ScorePartials& actual = blocks[next++].second;
        ASSERT_EQ(std::memcmp(&expected, &actual.abs_error_sum, sizeof(double)),
                  0)
            << "seed " << seed << " block " << block_rows << " at " << lo;
      });
      EXPECT_EQ(next, blocks.size());
    }
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
      // The Σ chain is the error fold's chain: same addends, same order.
      ErrorPartials error_fold = AccumulateAbsDiffBlocks(a, b, rows, block_rows);
      ASSERT_EQ(std::memcmp(&actual.abs_error_sum, &error_fold.abs_error_sum,
                            sizeof(double)),
                0)
          << "seed " << seed << " block " << block_rows;
      ASSERT_EQ(actual.n, error_fold.n);
    }
  }
}

TEST(KernelParityTest, ProbeScoreSumBitIdenticalAndSumMatchesProbeError) {
  for (uint64_t seed = 0; seed < 100; ++seed) {
    std::mt19937_64 rng(seed * 3907 + 11);
    int64_t num_rows = 1 + static_cast<int64_t>(rng() % 300);
    int64_t num_cols = static_cast<int64_t>(rng() % 4);
    ProbeCase p;
    MakeProbeCase(num_rows, num_cols, rng, &p);
    const ErrorProbe& probe = p.task.probes[0];
    const std::vector<int64_t>& rows = p.shape.rows;
    double tolerance = std::pow(10.0, static_cast<int>(rng() % 61) - 30);
    // Every fourth seed puts the band edge at zero and every fourth leaf row
    // exactly on the model, so a zero error must count as within the band.
    if (seed % 4 == 0) {
      tolerance = 0.0;
      for (size_t i = 0; i < rows.size(); i += 4) {
        size_t row = static_cast<size_t>(rows[i]);
        double y_hat = probe.intercept;
        for (size_t f = 0; f < p.shape.columns.size(); ++f) {
          y_hat += probe.coefficients[f] * (*p.shape.columns[f])[row];
        }
        p.shape.y[row] = y_hat;
      }
    }
    for (int64_t block_rows : {1L, 7L, 64L, num_rows + 1}) {
      auto blocks = ShardProbeBlocks(p, block_rows, tolerance);
      size_t next = 0;
      RefForEachBlock(rows, block_rows, [&](int64_t lo, int64_t count) {
        ASSERT_LT(next, blocks.size());
        const auto& [block, actual] = blocks[next++];
        EXPECT_EQ(block, rows[static_cast<size_t>(lo)] / block_rows);
        double expected_sum = 0.0;
        int64_t expected_exact = 0;
        RefProbeScoreSum(probe.intercept, probe.coefficients.data(),
                         p.shape.columns, p.shape.y, rows.data() + lo, count,
                         tolerance, &expected_sum, &expected_exact);
        ASSERT_EQ(std::memcmp(&expected_sum, &actual.abs_error_sum,
                              sizeof(double)),
                  0)
            << "seed " << seed << " block " << block_rows << " at " << lo;
        ASSERT_EQ(expected_exact, actual.exact_count)
            << "seed " << seed << " block " << block_rows << " at " << lo;
        ASSERT_EQ(actual.n, count);
        // The ŷ + Σ chain replays the reference probe error chain exactly.
        double error_sum =
            ProbeAbsErrorSum(probe.intercept, probe.coefficients.data(),
                             p.shape.columns, p.shape.y, rows.data() + lo, count);
        ASSERT_EQ(std::memcmp(&actual.abs_error_sum, &error_sum, sizeof(double)),
                  0)
            << "seed " << seed << " block " << block_rows << " at " << lo;
      });
      EXPECT_EQ(next, blocks.size());
    }
  }
}

}  // namespace
}  // namespace charles
