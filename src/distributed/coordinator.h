#ifndef CHARLES_DISTRIBUTED_COORDINATOR_H_
#define CHARLES_DISTRIBUTED_COORDINATOR_H_

/// \file
/// \brief Coordinator of distributed shard-task sweeps.
///
/// The coordinator owns the fan-out/merge half of the coordinator/worker
/// split (the half Roussakis-style change-detection frameworks centralize):
/// it dispatches one kLeafMoments ShardTask to every ShardRange of a plan
/// via a ShardBackend — concurrently over the run's thread pool when one is
/// available — and folds the ShardTaskResults exactly: every
/// per-(leaf, block) SufficientStats is merged in ascending global block
/// order via SufficientStats::Merge. Shards return blocks in order and are
/// themselves visited in row order, so the fold replays the canonical block
/// fold of AccumulateRowBlocks exactly — the merged moments are
/// bit-identical to an unsharded accumulation, at any shard count.
///
/// The engine solves fits from the merged moments through its ordinary
/// machinery, so ranked output is bit-identical at every shard count. See
/// docs/distributed.md for the full contract.

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/stop_token.h"
#include "distributed/backend.h"
#include "distributed/shard_planner.h"

namespace charles {

class ThreadPool;

/// \brief One leaf's exact cross-shard rollup.
struct LeafRollup {
  /// Merged moments over the leaf's full row set (shortlist feature order).
  SufficientStats stats;
  /// Block partials folded into `stats`.
  int64_t blocks_merged = 0;
};

/// \brief The coordinator's merged view of one completed task sweep.
struct CoordinatorTaskResult {
  /// One rollup per *requested* leaf, in ShardTask::leaves order.
  std::vector<LeafRollup> leaves;

  int64_t shards_executed = 0;
  int64_t rows_scanned = 0;   ///< summed over shards
  int64_t blocks_merged = 0;  ///< summed over rollups
  double elapsed_seconds = 0.0;
};

/// \brief Fans tasks out over a backend and merges the results.
class Coordinator {
 public:
  /// Executes `task` on every shard of `plan` via `backend` — concurrently
  /// over `pool` when non-null, serially otherwise — and merges with the
  /// exact block-ordered fold. Fails with the first shard error, or
  /// Status::Cancelled when `stop` is triggered (checked before each shard
  /// dispatch; in-flight shards complete).
  static Result<CoordinatorTaskResult> RunTask(const ShardInput& input,
                                               const ShardPlan& plan,
                                               ShardBackend* backend,
                                               ThreadPool* pool,
                                               const ShardTask& task,
                                               const StopToken* stop = nullptr);
};

}  // namespace charles

#endif  // CHARLES_DISTRIBUTED_COORDINATOR_H_
