#ifndef CHARLES_DISTRIBUTED_REMOTE_BACKEND_H_
#define CHARLES_DISTRIBUTED_REMOTE_BACKEND_H_

/// \file
/// \brief ShardBackend over TCP: tasks run on charles_worker daemons.
///
/// RemoteBackend implements the same seam InProcessBackend plugs into, so
/// the coordinator's fan-out/merge logic is untouched — only *where* the
/// kernel runs changes. Determinism is preserved end to end: the ShardInput
/// ships once per (snapshot, plan) epoch as an exact native-endian bundle,
/// tasks and results reuse the CTK1/CST1 wire formats bit-for-bit, and the
/// coordinator's merge stays block-ordered — so a remote run is
/// bit-identical to an in-process run at every shard count, even when a
/// worker dies mid-shard and its task is re-executed elsewhere (the kernel
/// is deterministic, so the retried shard's bytes are the same bytes).
///
/// Fault model: any transport failure (connect refusal, deadline, torn
/// stream, malformed reply) marks the worker unhealthy and reassigns the
/// task to another worker with bounded exponential backoff. A worker that
/// *deterministically* fails the task (kTaskError) propagates the error
/// without retry — rerunning a deterministic failure elsewhere would only
/// repeat it. A worker with no common wire version is excluded permanently
/// at handshake.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "distributed/backend.h"
#include "distributed/remote_counters.h"
#include "distributed/worker_registry.h"
#include "net/socket.h"

namespace charles {

struct RemoteBackendOptions {
  /// Worker addresses, "host:port" each.
  std::vector<std::string> endpoints;
  /// Deadline for connect + handshake and for health probes.
  int connect_timeout_ms = 2'000;
  /// Deadline for one install or task round trip (0 = no deadline). Installs
  /// and shard sweeps scale with data size, so this is the knob to raise for
  /// big snapshots.
  int task_timeout_ms = 30'000;
  /// Transport-failure retries per task beyond the first attempt. Each retry
  /// reassigns to another healthy worker when one exists.
  int max_task_retries = 2;
  /// Base of the exponential backoff between retries (base × 2^attempt,
  /// capped at 10×base).
  int retry_backoff_ms = 50;
  /// Upper bound on any received frame payload.
  int64_t max_frame_bytes = 0;  // 0 → kRemoteMaxFrameBytes
};

/// Aggregate dispatch diagnostics of one backend instance.
struct RemoteBackendDiagnostics {
  int64_t tasks_dispatched = 0;   ///< ExecuteTask calls served
  int64_t task_retries = 0;       ///< transport-failure reassignments
  int64_t input_installs = 0;     ///< install bundles shipped (Σ workers)
  int64_t input_epochs = 0;       ///< distinct (snapshot, plan) epochs seen
  std::vector<RemoteWorkerCounters> workers;
};

/// \brief The networked ShardBackend.
///
/// Thread-safe for concurrent ExecuteTask calls on distinct shards (the
/// coordinator fans out over the run's pool); each worker serves one request
/// at a time, serialized by its session mutex.
///
/// Input identity: the backend assumes the data behind a ShardInput's
/// pointers is immutable for the backend's lifetime (the ShardBackend
/// contract), and keys install epochs on the pointer tuple + leaf pointers +
/// plan shape. Engine runs construct one backend per run, where phases 1 and
/// 3 legitimately share column/target storage — giving exactly one install
/// per phase per worker.
class RemoteBackend : public ShardBackend {
 public:
  /// Validates and parses endpoints. Fails on an empty endpoint list or an
  /// unparseable "host:port". Does not dial anyone yet — connections are
  /// established lazily on first dispatch.
  static Result<std::unique_ptr<RemoteBackend>> Create(
      RemoteBackendOptions options);

  std::string name() const override { return "remote"; }

  Result<ShardTaskResult> ExecuteTask(const ShardInput& input,
                                      const ShardPlan& plan,
                                      int64_t shard_index,
                                      const ShardTask& task) override;

  /// Point-in-time dispatch counters (run_pipeline folds these into the
  /// result SummaryList).
  RemoteBackendDiagnostics Diagnostics() const;

  /// The registry, for tests that inject health transitions.
  WorkerRegistry& registry() { return registry_; }

 private:
  /// What one (snapshot, plan) identity serialized to.
  struct InstallBundle {
    int64_t epoch = 0;
    std::shared_ptr<const std::string> payload;
  };

  RemoteBackend(RemoteBackendOptions options,
                std::vector<net::Endpoint> endpoints);

  /// Returns the current epoch's bundle, serializing a new epoch when the
  /// input identity changed. Guarded by input_mu_.
  Result<InstallBundle> EnsureInstallBundle(const ShardInput& input,
                                            const ShardPlan& plan);

  /// One attempt on one worker: connect/handshake if needed, install if the
  /// session's epoch is stale, send the task, read the reply. On a transport
  /// failure sets *transport_failure, closes the session connection and
  /// marks the worker unhealthy. A kTaskError reply comes back as its
  /// decoded status with *transport_failure = false.
  Result<ShardTaskResult> TryExecuteOn(WorkerSession* session,
                                       const InstallBundle& bundle,
                                       int64_t shard_index,
                                       const ShardTask& task,
                                       bool* transport_failure);

  const RemoteBackendOptions options_;
  const int64_t max_frame_bytes_;
  WorkerRegistry registry_;

  /// \name Install-bundle state, guarded by input_mu_.
  /// @{
  mutable std::mutex input_mu_;
  const void* key_shortlist_ = nullptr;
  const void* key_columns_ = nullptr;
  const void* key_y_new_ = nullptr;
  std::vector<const RowSet*> key_leaves_;
  int64_t key_num_rows_ = -1;
  int64_t key_block_rows_ = -1;
  int64_t key_num_shards_ = -1;
  InstallBundle bundle_;
  /// @}

  std::atomic<int64_t> tasks_dispatched_{0};
  std::atomic<int64_t> task_retries_{0};
};

}  // namespace charles

#endif  // CHARLES_DISTRIBUTED_REMOTE_BACKEND_H_
