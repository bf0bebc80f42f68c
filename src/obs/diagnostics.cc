#include "obs/diagnostics.h"

#include "common/json.h"
#include "core/engine.h"

namespace charles {
namespace obs {

RunDiagnostics RunDiagnostics::FromSummary(const SummaryList& summary) {
  RunDiagnostics d;
  d.run_id = summary.run_id;
  d.summaries = static_cast<int64_t>(summary.summaries.size());

  d.condition_subsets = summary.condition_subsets;
  d.transform_subsets = summary.transform_subsets;
  d.labelings = summary.labelings;
  d.partitions = summary.partitions;
  d.candidates_evaluated = summary.candidates_evaluated;
  d.candidates_deduped = summary.candidates_deduped;

  d.threads_used = summary.threads_used;
  d.kernel_used = summary.kernel_used;

  d.leaf_fits_computed = summary.leaf_fits_computed;
  d.leaf_fits_reused = summary.leaf_fits_reused;
  d.leaf_fit_evictions = summary.leaf_fit_evictions;
  d.phase_cache_hit = summary.phase_cache_hit;

  d.shards_used = summary.shards_used;
  d.shard_rows_scanned = summary.shard_rows_scanned;
  d.shard_blocks_merged = summary.shard_blocks_merged;
  d.shard_tasks_executed = summary.shard_tasks_executed;
  d.shard_moment_leaves_swept = summary.shard_moment_leaves_swept;
  d.shard_moment_leaves_elided = summary.shard_moment_leaves_elided;

  d.score_partials_candidates = summary.score_partials_candidates;
  d.score_yhat_materializations = summary.score_yhat_materializations;
  d.score_leaf_folds = summary.score_leaf_folds;

  d.remote_tasks_dispatched = summary.remote_tasks_dispatched;
  d.remote_task_retries = summary.remote_task_retries;
  d.remote_input_installs = summary.remote_input_installs;
  d.remote_workers = summary.remote_workers;

  d.elapsed_seconds = summary.elapsed_seconds;
  d.clustering_seconds = summary.clustering_seconds;
  d.induction_seconds = summary.induction_seconds;
  d.fitting_seconds = summary.fitting_seconds;
  d.shard_seconds = summary.shard_seconds;
  return d;
}

std::string RunDiagnostics::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema_version").Int(kSchemaVersion);
  w.Key("run_id").String(run_id);
  w.Key("summaries").Int(summaries);

  w.Key("search").BeginObject();
  w.Key("condition_subsets").Int(condition_subsets);
  w.Key("transform_subsets").Int(transform_subsets);
  w.Key("labelings").Int(labelings);
  w.Key("partitions").Int(partitions);
  w.Key("candidates_evaluated").Int(candidates_evaluated);
  w.Key("candidates_deduped").Int(candidates_deduped);
  w.EndObject();

  w.Key("execution").BeginObject();
  w.Key("threads_used").Int(threads_used);
  w.Key("kernel_used").String(kernel_used);
  w.EndObject();

  w.Key("cache").BeginObject();
  w.Key("leaf_fits_computed").Int(leaf_fits_computed);
  w.Key("leaf_fits_reused").Int(leaf_fits_reused);
  w.Key("leaf_fit_evictions").Int(leaf_fit_evictions);
  w.Key("phase_cache_hit").Bool(phase_cache_hit);
  w.EndObject();

  w.Key("shards").BeginObject();
  w.Key("shards_used").Int(shards_used);
  w.Key("rows_scanned").Int(shard_rows_scanned);
  w.Key("blocks_merged").Int(shard_blocks_merged);
  w.Key("tasks_executed").Int(shard_tasks_executed);
  w.Key("moment_leaves_swept").Int(shard_moment_leaves_swept);
  w.Key("moment_leaves_elided").Int(shard_moment_leaves_elided);
  w.EndObject();

  w.Key("scoring").BeginObject();
  w.Key("partials_candidates").Int(score_partials_candidates);
  w.Key("yhat_materializations").Int(score_yhat_materializations);
  w.Key("leaf_folds").Int(score_leaf_folds);
  w.EndObject();

  w.Key("remote").BeginObject();
  w.Key("tasks_dispatched").Int(remote_tasks_dispatched);
  w.Key("task_retries").Int(remote_task_retries);
  w.Key("input_installs").Int(remote_input_installs);
  w.Key("workers").BeginArray();
  for (const RemoteWorkerCounters& worker : remote_workers) {
    w.BeginObject();
    w.Key("endpoint").String(worker.endpoint);
    w.Key("healthy").Bool(worker.healthy);
    w.Key("version_rejected").Bool(worker.version_rejected);
    w.Key("wire_version").Int(worker.wire_version);
    w.Key("tasks_dispatched").Int(worker.tasks_dispatched);
    w.Key("tasks_failed").Int(worker.tasks_failed);
    w.Key("input_installs").Int(worker.input_installs);
    w.Key("last_error").String(worker.last_error);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();

  w.Key("timings_seconds").BeginObject();
  w.Key("elapsed").Double(elapsed_seconds);
  w.Key("clustering").Double(clustering_seconds);
  w.Key("induction").Double(induction_seconds);
  w.Key("fitting").Double(fitting_seconds);
  w.Key("shard").Double(shard_seconds);
  w.EndObject();

  w.EndObject();
  return w.str();
}

}  // namespace obs
}  // namespace charles

namespace charles {

std::string SummaryList::ToJson() const {
  return obs::RunDiagnostics::FromSummary(*this).ToJson();
}

}  // namespace charles
