#include "distributed/coordinator.h"

#include <chrono>
#include <string>
#include <unordered_map>
#include <utility>

#include "obs/trace.h"
#include "parallel/parallel.h"

namespace charles {

namespace {

/// ParallelMap slot: Result<ShardTaskResult> is not default-constructible,
/// so shard outcomes travel as a (status, result) pair.
struct ShardOutcome {
  bool executed = false;
  Status status;
  ShardTaskResult result;
};

/// Merges the kLeafMoments payload of one shard into the per-requested-leaf
/// rollups. `position` maps a global leaf index to its slot.
Status MergeLeafMoments(const ShardOutcome& outcome,
                        const std::unordered_map<int64_t, size_t>& position,
                        CoordinatorTaskResult* merged) {
  for (const LeafShardStats& leaf : outcome.result.leaves) {
    auto it = position.find(leaf.leaf);
    if (it == position.end()) {
      return Status::Internal("Coordinator::RunTask: shard " +
                              std::to_string(outcome.result.shard) +
                              " reported unrequested leaf " +
                              std::to_string(leaf.leaf));
    }
    LeafRollup& rollup = merged->leaves[it->second];
    for (const auto& [block, stats] : leaf.blocks) {
      (void)block;  // ascending by construction; order is the contract
      CHARLES_RETURN_NOT_OK(rollup.stats.Merge(stats));
      rollup.blocks_merged += 1;
    }
  }
  return Status::OK();
}

}  // namespace

Result<CoordinatorTaskResult> Coordinator::RunTask(const ShardInput& input,
                                                   const ShardPlan& plan,
                                                   ShardBackend* backend,
                                                   ThreadPool* pool,
                                                   const ShardTask& task,
                                                   const StopToken* stop) {
  if (backend == nullptr) {
    return Status::InvalidArgument("Coordinator::RunTask: null backend");
  }
  auto start = std::chrono::steady_clock::now();

  // Trace context of the *calling* thread (the pipeline stage's span and the
  // run id). Captured once here because the fan-out lambda below runs on
  // pool threads, whose own thread-local context is empty — each dispatch
  // re-installs the run id and parents its span on the round span
  // explicitly. All of this is inert when tracing is off (null recorder).
  const obs::ThreadTraceContext caller = obs::CurrentTraceContext();
  obs::Span round_span(caller.recorder, "round:leaf_moments");
  if (round_span.active()) {
    round_span.Annotate("backend", backend->name());
    round_span.Annotate("shards", std::to_string(plan.num_shards()));
  }
  const uint64_t round_id = round_span.id();

  std::vector<ShardOutcome> outcomes = ParallelMap<ShardOutcome>(
      pool, plan.num_shards(), [&](int64_t shard) {
        ShardOutcome outcome;
        // Checked per shard, not once: a stop raised mid-plan skips every
        // not-yet-dispatched shard (in-flight ones run to completion).
        if (stop != nullptr && stop->stop_requested()) return outcome;
        obs::RunIdScope run_scope(caller.run_id);
        obs::Span dispatch_span(caller.recorder, "dispatch", round_id);
        if (dispatch_span.active()) {
          dispatch_span.Annotate("shard", std::to_string(shard));
        }
        Result<ShardTaskResult> result =
            backend->ExecuteTask(input, plan, shard, task);
        outcome.executed = true;
        if (result.ok()) {
          outcome.result = std::move(*result);
        } else {
          outcome.status = result.status();
        }
        return outcome;
      });

  if (stop != nullptr && stop->stop_requested()) {
    return Status::Cancelled("shard sweep cancelled (" + backend->name() +
                             " backend)");
  }
  for (const ShardOutcome& outcome : outcomes) {
    CHARLES_RETURN_NOT_OK(outcome.status);
  }

  CoordinatorTaskResult merged;
  const int64_t num_features =
      input.shortlist == nullptr ? 0
                                 : static_cast<int64_t>(input.shortlist->size());
  // Feature counts are fixed up front: a leaf entirely inside one shard
  // contributes no partials from the others, and an all-empty rollup must
  // still carry the shortlist width.
  std::unordered_map<int64_t, size_t> leaf_position;
  merged.leaves.resize(task.leaves.size());
  leaf_position.reserve(task.leaves.size());
  for (size_t l = 0; l < task.leaves.size(); ++l) {
    merged.leaves[l].stats = SufficientStats(num_features);
    leaf_position.emplace(task.leaves[l], l);
  }

  // Outcomes arrive in shard (= row) order and each shard lists its blocks
  // in ascending order, so the merges below visit every partial in
  // ascending global block order — the canonical fold of each currency.
  // The merge span wraps the fold; it observes the order, never changes it.
  obs::Span merge_span(caller.recorder, "merge", round_id);
  for (const ShardOutcome& outcome : outcomes) {
    if (!outcome.executed) continue;
    merged.shards_executed += 1;
    merged.rows_scanned += outcome.result.rows_scanned;
    CHARLES_RETURN_NOT_OK(MergeLeafMoments(outcome, leaf_position, &merged));
  }
  for (const LeafRollup& rollup : merged.leaves) {
    merged.blocks_merged += rollup.blocks_merged;
  }
  merged.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return merged;
}

}  // namespace charles
