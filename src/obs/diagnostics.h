#ifndef CHARLES_OBS_DIAGNOSTICS_H_
#define CHARLES_OBS_DIAGNOSTICS_H_

/// \file
/// \brief Stable JSON diagnostics for one engine run.
///
/// RunDiagnostics is the versioned, machine-readable view of a
/// SummaryList's diagnostic fields — the contract clients, benches, and
/// dashboards parse instead of scraping C++ structs. The schema is
/// deliberately a *copy* of the fields rather than a view: SummaryList can
/// be refactored freely while the JSON stays put. Versioning policy
/// (docs/observability.md): adding keys is backward compatible and does
/// not bump `schema_version`; removing or renaming one does.

#include <cstdint>
#include <string>
#include <vector>

#include "distributed/remote_counters.h"

namespace charles {

struct SummaryList;

namespace obs {

/// Machine-readable diagnostics of one run. Construct with FromSummary;
/// serialize with ToJson (SummaryList::ToJson delegates here).
struct RunDiagnostics {
  /// Bumped only on a breaking change (key removed or renamed). Version 2
  /// removed the three batched-fold counters under `execution` and the
  /// retired exact-L1 round's probe count (`shards`) and wall time
  /// (`timings_seconds`). Version 3 removed the retired signal-stats and
  /// score-partials rounds' keys: `shards.score_probes` and
  /// `timings_seconds.shard_signal` / `shard_score`. Version 4 removed
  /// `scoring.partials_candidates` (always equal to
  /// `search.candidates_evaluated`) and `scoring.yhat_materializations`
  /// (always 0). Version 5 added the `work` section (phase-2
  /// `trees_induced` and `split_scorings`). docs/observability.md lists the
  /// keys.
  static constexpr int kSchemaVersion = 5;

  std::string run_id;        ///< 16-hex run fingerprint
  int64_t summaries = 0;     ///< ranked summaries returned

  // Search space.
  int64_t condition_subsets = 0;
  int64_t transform_subsets = 0;
  int64_t labelings = 0;
  int64_t partitions = 0;
  int64_t candidates_evaluated = 0;
  int64_t candidates_deduped = 0;

  // Deterministic work counts.
  int64_t trees_induced = 0;
  int64_t split_scorings = 0;

  // Execution shape.
  int threads_used = 1;
  /// Fixed at "scalar" (the folds have one implementation).
  std::string kernel_used;

  // Leaf-fit and phase caches.
  int64_t leaf_fits_computed = 0;
  int64_t leaf_fits_reused = 0;
  int64_t leaf_fit_evictions = 0;
  bool phase_cache_hit = false;

  // Sharded execution.
  int shards_used = 0;
  int64_t shard_rows_scanned = 0;
  int64_t shard_blocks_merged = 0;
  int64_t shard_tasks_executed = 0;
  int64_t shard_moment_leaves_swept = 0;
  int64_t shard_moment_leaves_elided = 0;

  // Row-free scoring.
  int64_t score_leaf_folds = 0;

  // Remote fleet.
  int64_t remote_tasks_dispatched = 0;
  int64_t remote_task_retries = 0;
  int64_t remote_input_installs = 0;
  std::vector<RemoteWorkerCounters> remote_workers;

  // Wall times (seconds). Stages that did not run report exactly 0.
  double elapsed_seconds = 0.0;
  double clustering_seconds = 0.0;
  double induction_seconds = 0.0;
  double fitting_seconds = 0.0;
  double shard_seconds = 0.0;

  /// Copies the diagnostic fields out of a finished run's SummaryList.
  static RunDiagnostics FromSummary(const SummaryList& summary);

  /// One JSON object, `schema_version` first.
  std::string ToJson() const;
};

}  // namespace obs
}  // namespace charles

#endif  // CHARLES_OBS_DIAGNOSTICS_H_
