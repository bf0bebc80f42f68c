#ifndef CHARLES_DISTRIBUTED_SUBPROCESS_BACKEND_H_
#define CHARLES_DISTRIBUTED_SUBPROCESS_BACKEND_H_

#include <functional>
#include <mutex>

#include "distributed/backend.h"

namespace charles {

/// \brief Process-isolated backend: each shard task executes in a forked
/// worker that ships its serialized ShardTaskResult back over a pipe.
///
/// The worker inherits the parent's address space copy-on-write, so
/// ShardInput needs no marshalling — only the *result* crosses a process
/// boundary, which is precisely the coordinator-facing half of a future
/// multi-box protocol. What this backend proves, beyond the wire format
/// itself: results that crossed a byte stream still merge bit-identically
/// (doubles are framed bit-for-bit), and worker failures surface as Status
/// errors rather than hangs (a dead worker closes its pipe, so the parent's
/// read sees EOF, and waitpid reports the exit or signal).
///
/// Worker discipline: between fork and _exit the child only computes the
/// shard kernel and writes to its pipe — no threads, no engine calls, no
/// stdio. Forks are serialized internally (pipe setup is brief; the kernel
/// work itself overlaps across workers), and the calling process's threads
/// keep running — callers on a thread pool get one live worker per pool
/// thread.
///
/// Allocator assumption: the worker allocates (moment buffers, the wire
/// string) after forking from a multithreaded parent, which is safe on
/// glibc — its malloc registers pthread_atfork handlers that quiesce every
/// arena around fork — and on any allocator with equivalent fork hooks.
/// Deploying against an allocator without them would require preallocating
/// the worker's buffers before fork; the backend targets Linux/glibc (as
/// CI runs it) until then.
class SubprocessBackend : public ShardBackend {
 public:
  /// Test-only fault hook, run *inside the worker* before the kernel, so
  /// crash-path tests can kill a worker mid-shard (e.g. raise(SIGKILL)
  /// on a chosen shard). Must be set before any ExecuteTask call.
  using WorkerHook = std::function<void(int64_t shard_index)>;

  SubprocessBackend() = default;
  explicit SubprocessBackend(WorkerHook test_worker_hook)
      : test_worker_hook_(std::move(test_worker_hook)) {}

  std::string name() const override { return "subprocess"; }

  Result<ShardTaskResult> ExecuteTask(const ShardInput& input, const ShardPlan& plan,
                                      int64_t shard_index,
                                      const ShardTask& task) override;

 private:
  WorkerHook test_worker_hook_;
  /// Serializes fork + pipe setup; see class comment.
  std::mutex fork_mu_;
};

}  // namespace charles

#endif  // CHARLES_DISTRIBUTED_SUBPROCESS_BACKEND_H_
