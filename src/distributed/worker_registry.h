#ifndef CHARLES_DISTRIBUTED_WORKER_REGISTRY_H_
#define CHARLES_DISTRIBUTED_WORKER_REGISTRY_H_

/// \file
/// \brief The RemoteBackend's view of its worker fleet.
///
/// The registry is seeded with a static endpoint list (CharlesOptions::
/// remote_workers) and tracks, per worker: one cached connection (the
/// session), the negotiated wire version, which input epoch is installed on
/// it, and health. Health transitions:
///
///  - healthy → unhealthy: any transport failure (connect refusal, timeout,
///    torn stream) while talking to the worker. Its tasks are reassigned.
///  - unhealthy → healthy: a successful probe (connect + handshake + ping),
///    run synchronously by ReProbe() when the backend finds no healthy
///    worker left.
///  - any → version-rejected: the handshake finds no common wire version.
///    Permanent for the registry's lifetime — a version-skewed worker must
///    never contribute bytes to a merge.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "distributed/remote_counters.h"
#include "net/socket.h"

namespace charles {

/// \brief One worker's connection state and health record.
///
/// Locking: `mu` serializes use of the connection (fd, wire_version,
/// installed_epoch) — one in-flight request per worker. The health flags and
/// counters are guarded by the registry's own mutex so Acquire() and
/// ReProbe() never block behind a long-running task.
struct WorkerSession {
  explicit WorkerSession(net::Endpoint ep) : endpoint(std::move(ep)) {}

  const net::Endpoint endpoint;

  /// \name Connection state, guarded by `mu`.
  /// @{
  std::mutex mu;
  int fd = -1;
  int32_t wire_version = 0;
  /// Input epoch installed over *this connection* (-1 = none). Reset on every
  /// reconnect, so a restarted worker always gets a fresh install.
  int64_t installed_epoch = -1;
  /// @}

  /// \name Health record, guarded by the registry mutex.
  /// @{
  bool healthy = true;
  bool version_rejected = false;
  std::string last_error;
  int64_t tasks_dispatched = 0;
  int64_t tasks_failed = 0;
  int64_t input_installs = 0;
  /// @}
};

/// \brief Registry of remote workers: round-robin selection, health
/// bookkeeping and readmission probes.
class WorkerRegistry {
 public:
  /// Seeds the fleet. Endpoints are assumed unique; duplicates would merely
  /// count as independent workers on the same address.
  explicit WorkerRegistry(std::vector<net::Endpoint> endpoints);
  ~WorkerRegistry();

  WorkerRegistry(const WorkerRegistry&) = delete;
  WorkerRegistry& operator=(const WorkerRegistry&) = delete;

  size_t size() const { return sessions_.size(); }

  /// Next healthy worker, round-robin; nullptr when none is healthy (caller
  /// should ReProbe() once, then give up). `exclude` skips one session —
  /// the worker a task just failed on, so its retry lands elsewhere when the
  /// fleet has anywhere else to land.
  WorkerSession* Acquire(const WorkerSession* exclude = nullptr);

  /// Records a transport failure: the worker leaves the rotation until a
  /// probe readmits it. (The caller closes the session fd — it holds the
  /// session mutex; the registry never touches connection state.)
  void MarkUnhealthy(WorkerSession* session, const std::string& error);

  /// Records a handshake version rejection: permanent exclusion.
  void MarkVersionRejected(WorkerSession* session, const std::string& error);

  /// Re-marks a worker healthy after a successful probe.
  void MarkHealthy(WorkerSession* session);

  /// \name Dispatch accounting (feeds SummaryList diagnostics).
  /// @{
  void RecordDispatch(WorkerSession* session);
  void RecordFailure(WorkerSession* session);
  void RecordInstall(WorkerSession* session);
  /// @}

  /// Synchronously probes every unhealthy (non-version-rejected) worker:
  /// connect, handshake, ping, disconnect. Returns true if at least one
  /// worker was readmitted — the backend's last resort before reporting an
  /// all-workers-down failure.
  bool ReProbe(int connect_timeout_ms, int64_t max_frame_bytes);

  /// Point-in-time per-worker counters for diagnostics.
  std::vector<RemoteWorkerCounters> Snapshot() const;

 private:
  /// One readmission probe: fresh connect + handshake + ping, then close.
  /// Updates health under the registry mutex.
  bool ProbeOne(WorkerSession* session, int connect_timeout_ms,
                int64_t max_frame_bytes);

  std::vector<std::unique_ptr<WorkerSession>> sessions_;

  mutable std::mutex mu_;          // guards health flags + counters + cursor
  size_t round_robin_cursor_ = 0;  // guarded by mu_
};

}  // namespace charles

#endif  // CHARLES_DISTRIBUTED_WORKER_REGISTRY_H_
