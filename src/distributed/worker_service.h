#ifndef CHARLES_DISTRIBUTED_WORKER_SERVICE_H_
#define CHARLES_DISTRIBUTED_WORKER_SERVICE_H_

/// \file
/// \brief The worker half of the remote shard protocol.
///
/// WorkerService speaks the remote_protocol.h conversation over one
/// connection at a time: handshake, install-input, execute-task, ping,
/// shutdown. It holds at most one InstalledInput (the latest epoch) and runs
/// ExecuteShardTaskKernel — the exact kernel InProcessBackend runs — over
/// its owned reconstruction, which is why remote results merge
/// bit-identically to local ones.
///
/// The standalone `charles_worker` binary (tools/) wraps Serve() around a
/// TcpListener; LoopbackWorker runs the same service on a background thread
/// inside one process for tests and CI loopback jobs.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "common/result.h"
#include "distributed/remote_protocol.h"
#include "net/socket.h"

namespace charles {

/// Default bound on a single frame payload (1 GiB). Install bundles carry
/// whole columns, so this is generous; anything larger is a torn stream or a
/// hostile peer.
inline constexpr int64_t kRemoteMaxFrameBytes = int64_t{1} << 30;

struct WorkerServiceOptions {
  /// The wire-version range this worker speaks. Tests narrow it to force
  /// handshake rejection; the daemon uses the built-in range.
  int32_t version_min = kRemoteWireVersionMin;
  int32_t version_max = kRemoteWireVersionMax;
  /// Upper bound on any received frame payload.
  int64_t max_frame_bytes = kRemoteMaxFrameBytes;
  /// Test-only hook run inside the worker right before each task's kernel
  /// (fault injection: the fault test raises SIGKILL here to die
  /// mid-shard).
  std::function<void(int64_t shard_index)> task_hook;
};

/// \brief Serves the remote shard protocol; one instance per worker process.
class WorkerService {
 public:
  explicit WorkerService(WorkerServiceOptions options = {})
      : options_(std::move(options)) {}

  /// Serves one established connection until the peer disconnects or sends
  /// kShutdown. Returns OK on an orderly end (EOF or shutdown); a non-OK
  /// status means the stream died mid-message — the daemon logs it and keeps
  /// accepting.
  Status ServeConnection(int fd);

  /// Accept loop: serves connections sequentially until `stop` (optional)
  /// goes true or a connection requests kShutdown. Polls the listener in
  /// ~100 ms ticks so the stop flag is honored promptly.
  Status Serve(net::TcpListener& listener, const std::atomic<bool>* stop);

  /// True once a connection has requested kShutdown.
  bool shutdown_requested() const { return shutdown_requested_.load(); }

 private:
  WorkerServiceOptions options_;
  std::atomic<bool> shutdown_requested_{false};
  /// The latest installed input (one epoch at a time). Connections are
  /// served sequentially, so no lock is needed.
  std::unique_ptr<InstalledInput> installed_;
};

/// \brief A WorkerService on a background thread of this process, bound to
/// 127.0.0.1 — the loopback worker tests and the CI loopback job dial.
class LoopbackWorker {
 public:
  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts serving. The bound
  /// port is available via port()/endpoint().
  static Result<std::unique_ptr<LoopbackWorker>> Start(
      WorkerServiceOptions options = {}, int port = 0);

  ~LoopbackWorker() { Stop(); }

  LoopbackWorker(const LoopbackWorker&) = delete;
  LoopbackWorker& operator=(const LoopbackWorker&) = delete;

  int port() const { return listener_.port(); }
  /// The "127.0.0.1:port" form CharlesOptions::remote_workers takes.
  std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(listener_.port());
  }

  /// Stops the serve loop and joins the thread (idempotent).
  void Stop();

 private:
  explicit LoopbackWorker(WorkerServiceOptions options)
      : service_(std::move(options)) {}

  WorkerService service_;
  net::TcpListener listener_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace charles

#endif  // CHARLES_DISTRIBUTED_WORKER_SERVICE_H_
