#include "distributed/worker_service.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/wire.h"
#include "net/frame.h"
#include "obs/trace.h"

namespace charles {

namespace {

/// A fresh connection must say Hello promptly: connections are served
/// sequentially, so a silent peer (port scanner, wedged dialer) must not be
/// able to park the accept loop forever.
constexpr int kHandshakeTimeoutMs = 10'000;

Status Reply(int fd, RemoteMessageType type, const std::string& payload) {
  return net::WriteFrame(fd, static_cast<int32_t>(type), payload);
}

Status ReplyError(int fd, const Status& error) {
  return Reply(fd, RemoteMessageType::kTaskError, SerializeStatusPayload(error));
}

}  // namespace

Status WorkerService::ServeConnection(int fd) {
  // Handshake: the first frame must be a Hello carrying the coordinator's
  // version range. Pick the highest version both sides speak, or reject with
  // this worker's range so the coordinator can log a precise diagnostic.
  CHARLES_ASSIGN_OR_RETURN(
      net::Frame hello,
      net::ReadFrame(fd, kHandshakeTimeoutMs, options_.max_frame_bytes));
  if (hello.type != static_cast<int32_t>(RemoteMessageType::kHello)) {
    return Status::IOError("worker: expected Hello, got frame type " +
                           std::to_string(hello.type));
  }
  CHARLES_ASSIGN_OR_RETURN(RemoteVersionRange peer,
                           ParseVersionRange(hello.payload));
  int32_t lo = std::max(peer.min, options_.version_min);
  int32_t hi = std::min(peer.max, options_.version_max);
  if (lo > hi) {
    // Disjoint ranges: refuse, orderly. The coordinator excludes this worker
    // permanently; a corrupted merge is never on the table.
    CHARLES_RETURN_NOT_OK(
        Reply(fd, RemoteMessageType::kHelloReject,
              SerializeVersionRange(options_.version_min, options_.version_max)));
    return Status::OK();
  }
  CHARLES_RETURN_NOT_OK(
      Reply(fd, RemoteMessageType::kHelloOk, SerializeChosenVersion(hi)));

  // Request loop. The coordinator holds the connection open for a whole run
  // with idle gaps between phases, so reads block without a deadline; the
  // connection ends when the peer disconnects (any read failure) or sends
  // kShutdown.
  while (true) {
    Result<net::Frame> frame = net::ReadFrame(fd, 0, options_.max_frame_bytes);
    if (!frame.ok()) return Status::OK();  // peer gone — connection is over
    switch (static_cast<RemoteMessageType>(frame->type)) {
      case RemoteMessageType::kPing:
        CHARLES_RETURN_NOT_OK(Reply(fd, RemoteMessageType::kPong, ""));
        break;
      case RemoteMessageType::kInstallInput: {
        Result<std::unique_ptr<InstalledInput>> input = DeserializeInstallInput(
            frame->payload.data(), frame->payload.size());
        if (!input.ok()) {
          CHARLES_RETURN_NOT_OK(ReplyError(fd, input.status()));
          break;
        }
        installed_ = std::move(input).ValueUnsafe();
        std::string ok_payload;
        wire::AppendScalar(&ok_payload, installed_->epoch);
        CHARLES_RETURN_NOT_OK(
            Reply(fd, RemoteMessageType::kInstallOk, ok_payload));
        break;
      }
      case RemoteMessageType::kExecuteTask: {
        Result<RemoteTaskRequest> request =
            ParseExecuteRequest(frame->payload.data(), frame->payload.size());
        if (!request.ok()) {
          CHARLES_RETURN_NOT_OK(ReplyError(fd, request.status()));
          break;
        }
        if (installed_ == nullptr || installed_->epoch != request->epoch) {
          CHARLES_RETURN_NOT_OK(ReplyError(
              fd, Status::Internal(
                      "worker: task expects input epoch " +
                      std::to_string(request->epoch) + " but " +
                      (installed_ == nullptr
                           ? std::string("no input is installed")
                           : "epoch " + std::to_string(installed_->epoch) +
                                 " is installed") +
                      " — coordinator must reinstall")));
          break;
        }
        if (options_.task_hook) options_.task_hook(request->shard);
        // The run id rides every v3 request; the guard macro means a
        // suppressed level formats nothing (per-task hot path).
        CHARLES_VLOG(Debug) << "worker: run " << obs::FormatRunId(request->run_id)
                            << " shard " << request->shard << " epoch "
                            << request->epoch;
        // Traced requests record the kernel execution as spans against a
        // task-local recorder and ship them back in the composite reply.
        // Timestamps are rebased to the task span's start before
        // serialization: the coordinator's steady clock shares no epoch with
        // ours, so the wire carries only durations and relative offsets.
        obs::TraceRecorder task_recorder(request->run_id);
        obs::TraceRecorder* recorder =
            request->traced ? &task_recorder : nullptr;
        ShardInput view = installed_->View();
        Result<ShardTaskResult> result = [&]() -> Result<ShardTaskResult> {
          obs::RunIdScope run_scope(request->run_id);
          obs::Span task_span(recorder, "worker:task");
          if (task_span.active()) {
            task_span.Annotate("shard", std::to_string(request->shard));
          }
          return ExecuteShardTaskKernel(view, installed_->plan, request->shard,
                                        request->task);
        }();
        if (!result.ok()) {
          CHARLES_RETURN_NOT_OK(ReplyError(fd, result.status()));
          break;
        }
        std::string wire_result;
        if (request->traced) {
          std::vector<obs::SpanRecord> spans = task_recorder.Snapshot();
          const int64_t origin =
              spans.empty() ? 0 : spans.front().start_ns;
          for (obs::SpanRecord& span : spans) span.start_ns -= origin;
          SerializeTracedTaskResult(*result, spans, &wire_result);
        } else {
          result->SerializeTo(&wire_result);
        }
        CHARLES_RETURN_NOT_OK(
            Reply(fd, RemoteMessageType::kTaskOk, wire_result));
        break;
      }
      case RemoteMessageType::kShutdown:
        shutdown_requested_.store(true);
        CHARLES_RETURN_NOT_OK(Reply(fd, RemoteMessageType::kShutdownOk, ""));
        return Status::OK();
      default:
        return Status::IOError("worker: unexpected frame type " +
                               std::to_string(frame->type));
    }
  }
}

Status WorkerService::Serve(net::TcpListener& listener,
                            const std::atomic<bool>* stop) {
  while (!(stop != nullptr && stop->load()) && !shutdown_requested_.load()) {
    CHARLES_ASSIGN_OR_RETURN(int fd, listener.AcceptWithTimeout(100));
    if (fd < 0) continue;  // poll tick: re-check the stop flag
    // Per-connection failures (torn streams, protocol violations) end that
    // connection only; the daemon keeps accepting.
    ServeConnection(fd);
    net::CloseFd(fd);
  }
  return Status::OK();
}

Result<std::unique_ptr<LoopbackWorker>> LoopbackWorker::Start(
    WorkerServiceOptions options, int port) {
  std::unique_ptr<LoopbackWorker> worker(
      new LoopbackWorker(std::move(options)));
  CHARLES_ASSIGN_OR_RETURN(worker->listener_,
                           net::TcpListener::Bind("127.0.0.1", port));
  LoopbackWorker* raw = worker.get();
  worker->thread_ = std::thread(
      [raw]() { raw->service_.Serve(raw->listener_, &raw->stop_); });
  return worker;
}

void LoopbackWorker::Stop() {
  if (thread_.joinable()) {
    stop_.store(true);
    thread_.join();
  }
  listener_.Close();
}

}  // namespace charles
