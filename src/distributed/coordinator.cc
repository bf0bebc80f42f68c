#include "distributed/coordinator.h"

#include <algorithm>
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
    rollup.max_abs_delta = std::max(rollup.max_abs_delta, leaf.max_abs_delta);
    for (const auto& [block, stats] : leaf.blocks) {
      (void)block;  // ascending by construction; order is the contract
      CHARLES_RETURN_NOT_OK(rollup.stats.Merge(stats));
      rollup.blocks_merged += 1;
    }
  }
  return Status::OK();
}

Status MergeSignalStats(const ShardOutcome& outcome, int64_t* signal_blocks,
                        CoordinatorTaskResult* merged) {
  for (const auto& [block, stats] : outcome.result.signal_blocks) {
    (void)block;
    CHARLES_RETURN_NOT_OK(merged->signal_stats.Merge(stats));
    *signal_blocks += 1;
  }
  merged->signal_max_abs_delta =
      std::max(merged->signal_max_abs_delta, outcome.result.signal_max_abs_delta);
  merged->signal_rows_changed += outcome.result.signal_rows_changed;
  return Status::OK();
}

Status MergeScorePartials(const ShardOutcome& outcome,
                          CoordinatorTaskResult* merged) {
  for (const ProbeShardScores& probe : outcome.result.score_probes) {
    if (probe.probe < 0 ||
        probe.probe >= static_cast<int64_t>(merged->score_probes.size())) {
      return Status::Internal("Coordinator::RunTask: shard " +
                              std::to_string(outcome.result.shard) +
                              " reported unknown score probe " +
                              std::to_string(probe.probe));
    }
    ScoreRollup& rollup = merged->score_probes[static_cast<size_t>(probe.probe)];
    for (const auto& [block, partials] : probe.blocks) {
      (void)block;
      rollup.partials.Merge(partials);
      rollup.blocks_merged += 1;
    }
  }
  return Status::OK();
}

/// Static span name per round kind (Span wants a const char* so the
/// tracing-off path never materializes a std::string).
const char* RoundSpanName(ShardTaskKind kind) {
  switch (kind) {
    case ShardTaskKind::kLeafMoments:
      return "round:leaf_moments";
    case ShardTaskKind::kSignalStats:
      return "round:signal_stats";
    case ShardTaskKind::kScorePartials:
      return "round:score_partials";
  }
  return "round:?";
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
  obs::Span round_span(caller.recorder, RoundSpanName(task.kind));
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
                             " backend, " + ShardTaskKindName(task.kind) +
                             " task)");
  }
  for (const ShardOutcome& outcome : outcomes) {
    CHARLES_RETURN_NOT_OK(outcome.status);
  }

  CoordinatorTaskResult merged;
  merged.kind = task.kind;
  const int64_t num_features =
      input.shortlist == nullptr ? 0
                                 : static_cast<int64_t>(input.shortlist->size());
  // Feature counts are fixed up front: a leaf entirely inside one shard
  // contributes no partials from the others, and an all-empty rollup must
  // still carry the shortlist width.
  std::unordered_map<int64_t, size_t> leaf_position;
  if (task.kind == ShardTaskKind::kLeafMoments) {
    merged.leaves.resize(task.leaves.size());
    leaf_position.reserve(task.leaves.size());
    for (size_t l = 0; l < task.leaves.size(); ++l) {
      merged.leaves[l].stats = SufficientStats(num_features);
      leaf_position.emplace(task.leaves[l], l);
    }
  } else if (task.kind == ShardTaskKind::kSignalStats) {
    merged.signal_stats = SufficientStats(num_features);
  } else {
    merged.score_probes.resize(task.probes.size());
  }

  // Outcomes arrive in shard (= row) order and each shard lists its blocks
  // in ascending order, so the merges below visit every partial in
  // ascending global block order — the canonical fold of each currency.
  // The merge span wraps the fold; it observes the order, never changes it.
  obs::Span merge_span(caller.recorder, "merge", round_id);
  int64_t signal_blocks = 0;
  for (const ShardOutcome& outcome : outcomes) {
    if (!outcome.executed) continue;
    merged.shards_executed += 1;
    merged.rows_scanned += outcome.result.rows_scanned;
    switch (task.kind) {
      case ShardTaskKind::kLeafMoments:
        CHARLES_RETURN_NOT_OK(MergeLeafMoments(outcome, leaf_position, &merged));
        break;
      case ShardTaskKind::kSignalStats:
        CHARLES_RETURN_NOT_OK(MergeSignalStats(outcome, &signal_blocks, &merged));
        break;
      case ShardTaskKind::kScorePartials:
        CHARLES_RETURN_NOT_OK(MergeScorePartials(outcome, &merged));
        break;
    }
  }
  for (const LeafRollup& rollup : merged.leaves) {
    merged.blocks_merged += rollup.blocks_merged;
  }
  for (const ScoreRollup& rollup : merged.score_probes) {
    merged.blocks_merged += rollup.blocks_merged;
  }
  merged.blocks_merged += signal_blocks;
  merged.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return merged;
}

}  // namespace charles
