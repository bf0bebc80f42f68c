#ifndef CHARLES_DISTRIBUTED_BACKEND_H_
#define CHARLES_DISTRIBUTED_BACKEND_H_

/// \file
/// \brief The pluggable executor seam of distributed shard execution.
///
/// A ShardBackend executes one tagged ShardTask over one ShardRange of a
/// plan and returns a ShardTaskResult. Three task kinds cover the engine's
/// row-bound work (see ShardTaskKind): the per-leaf moments sweep behind
/// every transformation fit, the phase-1 signal accumulation over the whole
/// diff, and exact score partials (L1 + within-band counts) for row-free
/// scoring of candidate transforms. Every kind's payload is built from
/// per-block partials, so the Coordinator's ordered fold reproduces a
/// central scan bit-for-bit (docs/distributed.md).
///
/// Two backends plug in here: InProcessBackend runs the shard kernel on the
/// run's pool, and RemoteBackend ships ShardTask bytes out to charles_worker
/// daemons and ShardTaskResult bytes back.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/partition_finder.h"
#include "linalg/score_partials.h"
#include "linalg/suffstats.h"
#include "table/row_set.h"

namespace charles {

struct ShardPlan;

/// \brief Read-only view of everything a shard needs: the shortlist columns
/// and targets of the aligned analysis table, and the leaf row sets of every
/// surviving partition (deduplicated; row indices are analysis-table rows).
///
/// All pointers must outlive the shard execution. The view is shared
/// memory on one box; a future remote backend would ship the referenced
/// data once per (snapshot, plan) and address it the same way. Tasks that
/// never touch leaves (kSignalStats) may run against an empty `leaves`.
struct ShardInput {
  /// Transformation shortlist, in stats feature order.
  const std::vector<std::string>* shortlist = nullptr;
  /// Pre-converted columns covering `shortlist` over the analysis table.
  const ColumnCache* columns = nullptr;
  /// Old/new target values, aligned with analysis rows.
  const std::vector<double>* y_old = nullptr;
  const std::vector<double>* y_new = nullptr;
  /// Deduplicated partition leaves; task payloads and results refer to these
  /// by index. Order must be identical on every executor of a plan.
  std::vector<const RowSet*> leaves;
};

/// \brief What a ShardTask asks a shard to compute.
///
/// The values are wire tags. 3 belonged to the retired exact-L1 kind (wire
/// v4 and earlier) and is rejected on deserialization.
enum class ShardTaskKind : int64_t {
  /// Per-leaf sufficient statistics + snap evidence over the shard's range —
  /// the original (pre-protocol) sweep behind every transformation fit.
  kLeafMoments = 1,
  /// Phase-1 signal accumulation: per-block shortlist moments over *all*
  /// rows of the range (the run's global OLS currency) plus the folded
  /// delta evidence (max |Δy|, changed-row count) of the change signals.
  kSignalStats = 2,
  /// Exact score partials: per-block (Σ|y_new − ŷ|, exact-within-tolerance
  /// count, n) for each probe's candidate transform over its leaf's rows in
  /// the range — the row-free scoring currency. The Σ chain replays the
  /// central canonical L1 fold (AccumulateAbsDiffBlocks) exactly, so the L1
  /// projection of a score probe doubles as its exact MAE.
  kScorePartials = 4,
};

/// Short lowercase name for diagnostics and bench output.
std::string ShardTaskKindName(ShardTaskKind kind);

/// \brief One candidate transform whose exact score partials a
/// kScorePartials task evaluates.
///
/// The model is addressed against the run's shortlist: `features` are
/// shortlist column indices (the transformation subset T, in order) and
/// `coefficients` pair with them; ŷ(row) = intercept + Σ cᵢ·xᵢ(row) through
/// the same LinearModel::PredictRow arithmetic the central engine uses, so
/// shard-evaluated predictions are bit-identical to centrally evaluated
/// ones.
struct ErrorProbe {
  /// Index into ShardInput::leaves naming the probe's row set.
  int64_t leaf = 0;
  std::vector<int64_t> features;
  double intercept = 0.0;
  std::vector<double> coefficients;
};

/// \brief A tagged request: what one shard of the plan should compute.
///
/// The task is the coordinator→executor half of the protocol. The in-process
/// backend passes it by reference; the wire form exists for remote dispatch
/// and is covered by round-trip tests.
struct ShardTask {
  ShardTaskKind kind = ShardTaskKind::kLeafMoments;
  /// kLeafMoments: indices into ShardInput::leaves to sweep. A warm
  /// coordinator elides already-cached leaves by simply leaving them out.
  std::vector<int64_t> leaves;
  /// kScorePartials: the candidate transforms to evaluate.
  std::vector<ErrorProbe> probes;
  /// kScorePartials: the exactness band every score fold must use — the run
  /// Scorer's exact_tolerance(), shipped with the task so every executor
  /// tallies the identical within-band count. Ignored by other kinds (and
  /// serialized unconditionally, which is what moved the wire to v4).
  double score_tolerance = 0.0;

  /// \name Wire format (versioned, native-endian; magic "CTK1").
  /// @{
  void SerializeTo(std::string* out) const;
  static Result<ShardTask> Deserialize(const void* data, size_t size);
  /// @}
};

/// \brief One leaf's contribution from one shard (kLeafMoments).
struct LeafShardStats {
  /// Index into ShardInput::leaves.
  int64_t leaf = 0;
  /// Snap evidence: max |y_new − y_old| over the leaf's rows in this shard.
  /// Max is exactly associative, so the coordinator's fold reproduces the
  /// engine's serial no-change scan bit-for-bit — this is what lets the
  /// central fit snap a distributed leaf to the no-change transformation
  /// without rescanning its rows.
  double max_abs_delta = 0.0;
  /// Per-block moments over the run's full shortlist, ascending block
  /// index. Blocks are never split across shards, so these partials are
  /// identical under every sharding.
  std::vector<std::pair<int64_t, SufficientStats>> blocks;
};

/// \brief One probe's contribution from one shard (kScorePartials):
/// per-block exact score partials, ascending block index.
struct ProbeShardScores {
  /// Index into ShardTask::probes.
  int64_t probe = 0;
  std::vector<std::pair<int64_t, ScorePartials>> blocks;
};

/// \brief Everything a shard sends back for one task.
///
/// Only the fields of the task's kind are populated; the rest stay empty.
struct ShardTaskResult {
  ShardTaskKind kind = ShardTaskKind::kLeafMoments;
  int64_t shard = 0;

  /// kLeafMoments: leaves intersecting the shard's range, ascending index.
  std::vector<LeafShardStats> leaves;

  /// \name kSignalStats payload.
  /// @{
  /// Per-block shortlist moments over every row of the range, ascending.
  std::vector<std::pair<int64_t, SufficientStats>> signal_blocks;
  /// max |y_new − y_old| over the range (exactly associative fold).
  double signal_max_abs_delta = 0.0;
  /// Rows of the range whose target moved at all (|Δy| > 0); a cheap
  /// change-density diagnostic.
  int64_t signal_rows_changed = 0;
  /// @}

  /// kScorePartials: one entry per probe intersecting the range, ascending
  /// probe index.
  std::vector<ProbeShardScores> score_probes;

  /// \name Diagnostics.
  /// @{
  int64_t rows_scanned = 0;    ///< rows the task actually visited
  int64_t blocks_emitted = 0;  ///< per-block partials produced
  double elapsed_seconds = 0.0;
  /// @}

  /// \name Wire format.
  /// Versioned native-endian framing (magic "CST1") over the payload
  /// serializers — the bytes remote workers send back. A round
  /// trip is exact (doubles are copied bit-for-bit), so a deserialized
  /// result merges bit-identically to an in-process one.
  /// @{
  void SerializeTo(std::string* out) const;
  static Result<ShardTaskResult> Deserialize(const void* data, size_t size);
  /// @}
};

/// \brief Executes one task on one shard of a plan against in-memory input.
///
/// This is the shard *kernel* both built-in backends run — InProcessBackend
/// on a pool thread, RemoteBackend inside a charles_worker. Deterministic:
/// output depends only on (input, plan, shard index, task).
Result<ShardTaskResult> ExecuteShardTaskKernel(const ShardInput& input,
                                               const ShardPlan& plan,
                                               int64_t shard_index,
                                               const ShardTask& task);

/// \brief A shard executor. Implementations must be safe for concurrent
/// ExecuteTask calls on distinct shards — the coordinator fans out over the
/// run's thread pool.
class ShardBackend {
 public:
  virtual ~ShardBackend() = default;

  /// Short human-readable backend name for diagnostics ("in-process", ...).
  virtual std::string name() const = 0;

  /// Executes `task` on shard `shard_index` of `plan` over `input`.
  virtual Result<ShardTaskResult> ExecuteTask(const ShardInput& input,
                                              const ShardPlan& plan,
                                              int64_t shard_index,
                                              const ShardTask& task) = 0;
};

}  // namespace charles

#endif  // CHARLES_DISTRIBUTED_BACKEND_H_
