#ifndef CHARLES_DISTRIBUTED_COORDINATOR_H_
#define CHARLES_DISTRIBUTED_COORDINATOR_H_

/// \file
/// \brief Coordinator of distributed shard-task sweeps.
///
/// The coordinator owns the fan-out/merge half of the coordinator/worker
/// split (the half Roussakis-style change-detection frameworks centralize):
/// it dispatches one tagged ShardTask to every ShardRange of a plan via a
/// ShardBackend — concurrently over the run's thread pool when one is
/// available — and folds the ShardTaskResults with the task kind's exact,
/// order-canonical merge:
///
///  - kLeafMoments: every per-(leaf, block) SufficientStats, merged in
///    ascending global block order via SufficientStats::Merge. Shards
///    return blocks in order and are themselves visited in row order, so
///    the fold replays the canonical block fold of AccumulateRowBlocks
///    exactly — the merged moments are bit-identical to an unsharded
///    accumulation, at any shard count. Snap evidence (max |Δy|) folds
///    exactly because max is associative.
///  - kSignalStats: the per-block shortlist moments over the whole diff,
///    merged the same way — bit-identical to AccumulateRangeBlocks.
///  - kScorePartials: per-(probe, block) ScorePartials merged in ascending
///    block order. The Σ chain replays the central canonical L1 fold
///    exactly, so shard-derived MAE is bit-identical to centrally evaluated
///    MAE; the exact count is an integer tally (order-free), so the merged
///    accuracy is bit-identical too.
///
/// The engine re-solves fits and decisions from the merged currencies
/// through its ordinary machinery, so ranked output is bit-identical to the
/// unsharded engine. See docs/distributed.md for the full contract.

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/stop_token.h"
#include "distributed/backend.h"
#include "distributed/shard_planner.h"

namespace charles {

class ThreadPool;

/// \brief One leaf's exact cross-shard rollup (kLeafMoments).
struct LeafRollup {
  /// Merged moments over the leaf's full row set (shortlist feature order).
  SufficientStats stats;
  /// max |y_new − y_old| over the leaf — the central no-change decision
  /// consumes this instead of rescanning the leaf's rows.
  double max_abs_delta = 0.0;
  /// Block partials folded into `stats`.
  int64_t blocks_merged = 0;
};

/// \brief One probe's exact cross-shard rollup (kScorePartials).
struct ScoreRollup {
  /// Merged (Σ|y − ŷ|, exact count, n) over the probe's leaf.
  ScorePartials partials;
  /// Block partials folded into `partials`.
  int64_t blocks_merged = 0;
};

/// \brief The coordinator's merged view of one completed task sweep.
///
/// Only the fields of the task's kind carry data.
struct CoordinatorTaskResult {
  ShardTaskKind kind = ShardTaskKind::kLeafMoments;
  /// kLeafMoments: one rollup per *requested* leaf, in ShardTask::leaves
  /// order.
  std::vector<LeafRollup> leaves;
  /// kSignalStats: merged shortlist moments over the whole diff + the
  /// folded delta evidence.
  SufficientStats signal_stats;
  double signal_max_abs_delta = 0.0;
  int64_t signal_rows_changed = 0;
  /// kScorePartials: one rollup per ShardTask::probes entry, same order.
  std::vector<ScoreRollup> score_probes;

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
  /// kind's exact fold. Fails with the first shard error, or
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
