#ifndef CHARLES_CORE_OPTIONS_H_
#define CHARLES_CORE_OPTIONS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace charles {

/// \brief Weights of the interpretability sub-scores.
///
/// Interpretability(S) = Σ weight_i · subscore_i with Σ weight_i = 1
/// (normalized at use). The five sub-scores mirror the paper's §2
/// desiderata: smaller summaries, simpler conditions, simpler
/// transformations, higher coverage, higher normality.
struct ScoreWeights {
  double summary_size = 0.25;
  double condition_simplicity = 0.20;
  double transform_simplicity = 0.20;
  double coverage = 0.20;
  double normality = 0.15;
};

/// \brief Options for normality snapping of transformation constants.
struct NormalityOptions {
  /// Snap fitted coefficients to "nice" values when the accuracy guard
  /// allows (the paper prefers "5%" over "2.479%").
  bool enable_snapping = true;
  /// A snapped coefficient may move by at most this relative amount.
  double max_relative_coefficient_shift = 0.05;
  /// Snapping is reverted if the partition's mean absolute error grows by
  /// more than this fraction of the mean absolute target value.
  double max_relative_accuracy_loss = 0.01;
  /// A model fitting its partition within this MAE is "exact"; snapping may
  /// never push an exact model above this threshold (a nicer constant is not
  /// worth breaking a perfect rule). The engine sets this from
  /// CharlesOptions::numeric_tolerance.
  double exactness_tolerance = 1e-6;
};

/// \brief Which executor runs distributed shard work (see docs/distributed.md).
enum class ShardBackendKind {
  /// Shards execute on the run's own thread pool (the EngineContext pool
  /// when attached) — zero serialization, the default.
  kInProcess,
  /// Shards execute on networked charles_worker daemons (remote_workers
  /// lists their addresses). The input ships once per (snapshot, plan);
  /// tasks and results travel in the ShardTask wire formats, so remote
  /// output is bit-identical to in-process output. Workers that die
  /// mid-shard are marked unhealthy and their tasks reassigned.
  kRemote,
};

/// \brief All knobs of the ChARLES pipeline, with the paper's defaults.
///
/// Novices can set only target_attribute and key_columns; every other field
/// has the default the demo uses.
struct CharlesOptions {
  /// The numeric attribute whose evolution is to be explained (paper: aᵢ).
  std::string target_attribute;
  /// Primary-key columns identifying entities across snapshots.
  std::vector<std::string> key_columns;

  /// Maximum condition attributes per summary (paper: c, demo default 3).
  int max_condition_attrs = 3;
  /// Maximum transformation attributes per linear model (paper: t, default 2).
  int max_transform_attrs = 2;
  /// Accuracy weight in Score = α·Accuracy + (1−α)·Interpretability.
  double alpha = 0.5;
  /// Summaries returned (paper: "10 top-scoring summaries").
  int top_n = 10;

  /// Setup assistant: minimum association for auto-selected candidates
  /// (paper: "correlation with the target attribute greater than 0.5").
  double correlation_threshold = 0.5;
  /// Shortlist caps — the candidate pools subsets are enumerated from.
  int max_condition_candidates = 6;
  int max_transform_candidates = 5;
  /// If fewer candidates clear the threshold, the assistant keeps this many
  /// top-ranked ones anyway so the engine always has something to explore.
  /// Four condition slots give weakly-associated-but-essential attributes
  /// (an experience threshold that only matters inside one segment) room to
  /// make the pool on small samples.
  int min_condition_candidates = 4;
  int min_transform_candidates = 2;

  /// Manual overrides; leave empty to let the setup assistant choose.
  std::vector<std::string> condition_attributes;
  std::vector<std::string> transform_attributes;
  /// Always offer the target's previous value as a transformation feature
  /// (bonus_new = f(bonus_old, ...)).
  bool include_old_target_in_transform = true;

  /// Partition discovery: each change signal is clustered by exact 1-D
  /// k-means for k = 1..max_clusters.
  int max_clusters = 6;
  /// Decision-tree depth for condition induction; 0 means "use
  /// max_condition_attrs".
  int tree_max_depth = 0;
  /// Partitions smaller than this are not worth a conditional transformation.
  int64_t min_partition_size = 1;
  /// Cap on distinct partitionings carried into transformation discovery;
  /// when exceeded, partitionings whose conditions describe their clusters
  /// best (highest label agreement, then fewer partitions) are kept. Bounds
  /// the search the paper warns "can explode".
  int max_partitions = 512;

  /// Worker threads for the engine's search phases (clustering, condition
  /// induction, transformation fitting). 0 means "use hardware concurrency";
  /// 1 runs fully serial. Parallel runs produce ranked output identical to
  /// serial runs — the reduction is deterministic and order-independent.
  /// Ignored when the engine is attached to an EngineContext: the context's
  /// long-lived pool (and its thread count) is used instead.
  int num_threads = 0;

  /// \name Distributed shard execution (docs/distributed.md).
  /// @{
  /// Row-range shards phase 3's leaf-moments round is split into: the
  /// aligned diff is split into `num_shards` contiguous block-aligned row
  /// ranges (clamped to the block count), each executed by `shard_backend`,
  /// and the per-leaf moments are merged exactly — output is bit-identical
  /// at every shard count. 0 (default) = one range per pool thread.
  int num_shards = 0;
  /// Executor of the leaf-moments round's shards.
  ShardBackendKind shard_backend = ShardBackendKind::kInProcess;
  /// Block size (rows) of the canonical block-structured moment
  /// accumulation — the determinism unit of distributed execution: shard
  /// boundaries always fall on block boundaries, so per-block partials are
  /// identical under any sharding and their ordered Merge fold yields
  /// bit-identical moments. Smaller blocks allow more shards on small data
  /// but add one Merge per block. Changing it changes results at the
  /// ~1e-12 level (a different, equally valid floating-point evaluation
  /// order), so compare runs only at a fixed block size.
  int64_t stats_block_rows = 4096;

  /// \name Remote backend (shard_backend = kRemote only).
  /// Worker addresses ("host:port" each) of the charles_worker fleet.
  std::vector<std::string> remote_workers;
  /// Deadline for connecting to (and handshaking with) a worker.
  int remote_connect_timeout_ms = 2'000;
  /// Deadline for one install or task round trip; 0 = no deadline. Scale
  /// with snapshot size.
  int remote_task_timeout_ms = 30'000;
  /// Transport-failure retries per shard task beyond the first attempt;
  /// each retry reassigns the task to another healthy worker.
  int remote_max_task_retries = 2;
  /// Base of the exponential retry backoff (base × 2^attempt, capped).
  int remote_retry_backoff_ms = 50;
  /// Period of the background worker health sweep; <= 0 disables it
  /// (unhealthy workers are then re-probed only when the fleet runs dry).
  int remote_health_check_interval_ms = 0;
  /// @}

  /// Record a trace of this run: every pipeline stage, shard dispatch and
  /// merge, and — over the remote wire — worker-side task execution becomes
  /// a span in one TraceRecorder (src/obs/trace.h), exported via
  /// `SummaryList::trace->ToChromeTraceJson()` for about:tracing/Perfetto.
  /// Off (the default) costs nothing: spans are inert, no allocation
  /// happens on hot paths, and no trace context rides the wire. Tracing
  /// observes and never reorders the canonical folds, so enabling it does
  /// not perturb results (docs/observability.md).
  bool trace = false;

  /// Numeric cells differing by at most this are "unchanged".
  double numeric_tolerance = 1e-6;
  /// Tolerate entities present in only one snapshot (they are excluded from
  /// the analysis). Off by default: the paper assumes identical entity sets.
  bool allow_insert_delete = false;

  ScoreWeights weights;
  NormalityOptions normality;

  /// Validates ranges (alpha in [0,1], positive caps, non-empty target/keys).
  Status Validate() const;
};

}  // namespace charles

#endif  // CHARLES_CORE_OPTIONS_H_
