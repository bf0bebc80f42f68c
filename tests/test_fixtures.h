#ifndef CHARLES_TESTS_TEST_FIXTURES_H_
#define CHARLES_TESTS_TEST_FIXTURES_H_

/// \file
/// Fixtures shared by the test files: a deterministic synthetic shard input
/// for the distributed and wire tests, and the bit-level comparators of
/// merged shard rounds and of whole ranked runs.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "distributed/backend.h"
#include "distributed/coordinator.h"

namespace charles {

/// Deterministic synthetic shard input: two feature columns, y vectors, and
/// three leaves with distinct shapes (all rows, a stride, a prefix). `input`
/// points into the other members, so the fixture is built in place and can
/// be neither copied nor moved.
struct SyntheticInput {
  explicit SyntheticInput(int64_t rows) {
    shortlist = {"a", "b"};
    std::vector<double> a(static_cast<size_t>(rows)), b(static_cast<size_t>(rows));
    y_old.resize(static_cast<size_t>(rows));
    y_new.resize(static_cast<size_t>(rows));
    for (int64_t r = 0; r < rows; ++r) {
      size_t i = static_cast<size_t>(r);
      a[i] = 1000.0 + 3.0 * static_cast<double>(r);
      b[i] = 50.0 - 0.25 * static_cast<double>(r % 97);
      y_old[i] = 10.0 + 0.5 * a[i];
      y_new[i] = (r % 3 == 0) ? y_old[i] : 1.05 * y_old[i] + 2.0 * b[i];
    }
    columns.Insert("a", std::move(a));
    columns.Insert("b", std::move(b));

    std::vector<int64_t> stride, prefix;
    for (int64_t r = 0; r < rows; r += 3) stride.push_back(r);
    for (int64_t r = 0; r < rows / 2; ++r) prefix.push_back(r);
    leaf_storage.push_back(RowSet::All(rows));
    leaf_storage.push_back(RowSet(std::move(stride)));
    leaf_storage.push_back(RowSet(std::move(prefix)));

    input.shortlist = &shortlist;
    input.columns = &columns;
    input.y_new = &y_new;
    for (const RowSet& leaf : leaf_storage) input.leaves.push_back(&leaf);
  }
  SyntheticInput(const SyntheticInput&) = delete;
  SyntheticInput& operator=(const SyntheticInput&) = delete;

  std::vector<std::string> shortlist;
  ColumnCache columns;
  std::vector<double> y_old;
  std::vector<double> y_new;
  std::vector<RowSet> leaf_storage;
  ShardInput input;
};

/// A kLeafMoments task over every leaf of `input`.
inline ShardTask MakeMomentsTask(const ShardInput& input) {
  ShardTask task;
  for (size_t l = 0; l < input.leaves.size(); ++l) {
    task.leaves.push_back(static_cast<int64_t>(l));
  }
  return task;
}

/// Bitwise equality of two merged task results (elapsed time excluded).
inline void ExpectBitIdenticalMerges(const CoordinatorTaskResult& expected,
                                     const CoordinatorTaskResult& actual) {
  EXPECT_EQ(expected.shards_executed, actual.shards_executed);
  EXPECT_EQ(expected.rows_scanned, actual.rows_scanned);
  EXPECT_EQ(expected.blocks_merged, actual.blocks_merged);
  ASSERT_EQ(expected.leaves.size(), actual.leaves.size());
  for (size_t l = 0; l < expected.leaves.size(); ++l) {
    EXPECT_TRUE(expected.leaves[l].stats.BitIdenticalTo(actual.leaves[l].stats))
        << "leaf " << l;
    EXPECT_EQ(expected.leaves[l].blocks_merged, actual.leaves[l].blocks_merged);
  }
}

/// Bit-identical ranked output: same summaries in the same order with
/// byte-equal renderings, bit-equal scores and accuracies, and the same
/// search trajectory (the search walked the same space, not just converged).
inline void ExpectIdenticalRuns(const SummaryList& expected, const SummaryList& actual) {
  ASSERT_EQ(expected.summaries.size(), actual.summaries.size());
  for (size_t i = 0; i < expected.summaries.size(); ++i) {
    const ChangeSummary& a = expected.summaries[i];
    const ChangeSummary& b = actual.summaries[i];
    EXPECT_EQ(a.Signature(), b.Signature()) << "rank " << i;
    const double sa = a.scores().score, sb = b.scores().score;
    const double aa = a.scores().accuracy, ab = b.scores().accuracy;
    EXPECT_EQ(std::memcmp(&sa, &sb, sizeof(double)), 0) << "rank " << i;
    EXPECT_EQ(std::memcmp(&aa, &ab, sizeof(double)), 0) << "rank " << i;
    EXPECT_EQ(a.ToString(), b.ToString()) << "rank " << i;
  }
  EXPECT_EQ(expected.labelings, actual.labelings);
  EXPECT_EQ(expected.partitions, actual.partitions);
  EXPECT_EQ(expected.candidates_evaluated, actual.candidates_evaluated);
  EXPECT_EQ(expected.candidates_deduped, actual.candidates_deduped);
}

}  // namespace charles

#endif  // CHARLES_TESTS_TEST_FIXTURES_H_
