#ifndef CHARLES_DISTRIBUTED_SHARD_PLANNER_H_
#define CHARLES_DISTRIBUTED_SHARD_PLANNER_H_

/// \file
/// \brief Row-range shard planning for distributed leaf-statistics sweeps.
///
/// The aligned diff is split into contiguous row ranges, one per shard, and
/// every range boundary falls on a boundary of the canonical statistics
/// blocks (see AccumulateRowBlocks in linalg/suffstats.h). Block alignment
/// is what makes the merge exact: a block is never split across executors,
/// so every sharding produces the identical per-block partials, and the
/// coordinator's ordered Merge fold produces the identical moments — a run
/// is bit-identical at every shard count, not merely close.
///
/// Rows are ranged in analysis-table order, which the engine derives from
/// key-ordered diff alignment — so plans are deterministic functions of
/// (row count, block size, shard count) and carry no data.

#include <cstdint>
#include <string>
#include <vector>

namespace charles {

/// One shard's contiguous slice of the diff: blocks [block_begin, block_end)
/// covering rows [row_begin, row_end).
struct ShardRange {
  int64_t index = 0;
  int64_t block_begin = 0;
  int64_t block_end = 0;
  int64_t row_begin = 0;
  int64_t row_end = 0;

  int64_t num_rows() const { return row_end - row_begin; }
  std::string ToString() const;
};

/// \brief A full shard plan over an n-row diff.
struct ShardPlan {
  int64_t num_rows = 0;
  int64_t block_rows = 0;
  /// Shards in row order; ranges are disjoint and cover [0, num_rows).
  std::vector<ShardRange> shards;

  int64_t num_shards() const { return static_cast<int64_t>(shards.size()); }
  /// Total canonical blocks of the diff (ceil(num_rows / block_rows)).
  int64_t num_blocks() const;
  std::string ToString() const;
};

/// \brief Deterministic planner: splits ceil(num_rows / block_rows) blocks
/// into at most `requested_shards` contiguous runs of near-equal block
/// count (earlier shards take the remainder, exactly like the thread pool's
/// chunking).
///
/// The effective shard count is min(requested_shards, block count) — on
/// data smaller than `requested_shards` blocks some shards would own no
/// rows, so they are not created. `requested_shards` >= 1; an empty diff
/// yields a plan with no shards.
ShardPlan PlanShards(int64_t num_rows, int64_t block_rows, int requested_shards);

}  // namespace charles

#endif  // CHARLES_DISTRIBUTED_SHARD_PLANNER_H_
