#ifndef CHARLES_DISTRIBUTED_BACKEND_H_
#define CHARLES_DISTRIBUTED_BACKEND_H_

/// \file
/// \brief The pluggable executor seam of distributed shard execution.
///
/// A ShardBackend executes one ShardTask over one ShardRange of a plan and
/// returns a ShardTaskResult. There is one task kind (see ShardTaskKind):
/// the per-leaf moments sweep behind every transformation fit. Its payload
/// is per-block partials, so the Coordinator's ordered fold reproduces a
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
#include "linalg/suffstats.h"
#include "table/row_set.h"

namespace charles {

struct ShardPlan;

/// \brief Read-only view of everything a shard needs: the shortlist columns
/// and new target of the aligned analysis table, and the leaf row sets of
/// every surviving partition (deduplicated; row indices are analysis-table
/// rows).
///
/// All pointers must outlive the shard execution. The remote backend ships
/// the referenced data once per (snapshot, plan) and addresses it the same
/// way.
struct ShardInput {
  /// Transformation shortlist, in stats feature order.
  const std::vector<std::string>* shortlist = nullptr;
  /// Pre-converted columns covering `shortlist` over the analysis table.
  const ColumnCache* columns = nullptr;
  /// New target values, aligned with analysis rows (the moments' response).
  const std::vector<double>* y_new = nullptr;
  /// Deduplicated partition leaves; task payloads and results refer to these
  /// by index. Order must be identical on every executor of a plan.
  std::vector<const RowSet*> leaves;
};

/// \brief The wire tag of what a ShardTask asks a shard to compute.
///
/// Both wire formats carry the tag; it is not kept in memory, since there is
/// one kind. Tags 2 (signal stats), 3 (exact L1) and 4 (score partials)
/// belonged to retired kinds and are rejected on deserialization.
enum class ShardTaskKind : int64_t {
  /// Per-leaf sufficient statistics over the shard's range — the sweep
  /// behind every transformation fit.
  kLeafMoments = 1,
};

/// \brief A tagged request: what one shard of the plan should compute.
///
/// The task is the coordinator→executor half of the protocol. The in-process
/// backend passes it by reference; the wire form exists for remote dispatch
/// and is covered by round-trip tests.
struct ShardTask {
  /// Indices into ShardInput::leaves to sweep. A warm coordinator elides
  /// already-cached leaves by simply leaving them out.
  std::vector<int64_t> leaves;

  /// \name Wire format (versioned, native-endian; magic "CTK1").
  /// @{
  void SerializeTo(std::string* out) const;
  static Result<ShardTask> Deserialize(const void* data, size_t size);
  /// @}
};

/// \brief One leaf's contribution from one shard.
struct LeafShardStats {
  /// Index into ShardInput::leaves.
  int64_t leaf = 0;
  /// Per-block moments over the run's full shortlist, ascending block
  /// index. Blocks are never split across shards, so these partials are
  /// identical under every sharding.
  std::vector<std::pair<int64_t, SufficientStats>> blocks;
};

/// \brief Everything a shard sends back for one task.
struct ShardTaskResult {
  int64_t shard = 0;

  /// Leaves intersecting the shard's range, ascending index.
  std::vector<LeafShardStats> leaves;

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
