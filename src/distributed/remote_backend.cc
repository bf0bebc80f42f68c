#include "distributed/remote_backend.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "distributed/remote_protocol.h"
#include "distributed/shard_planner.h"
#include "distributed/worker_service.h"
#include "net/frame.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace charles {

namespace {

/// Backoff before retry `attempt` (0-based): base × 2^attempt, capped.
int BackoffMs(int base_ms, int attempt) {
  if (base_ms <= 0) return 0;
  int64_t backoff = static_cast<int64_t>(base_ms) << std::min(attempt, 16);
  return static_cast<int>(std::min<int64_t>(backoff, 10LL * base_ms));
}

}  // namespace

Result<std::unique_ptr<RemoteBackend>> RemoteBackend::Create(
    RemoteBackendOptions options) {
  if (options.endpoints.empty()) {
    return Status::InvalidArgument(
        "RemoteBackend: no worker endpoints configured");
  }
  std::vector<net::Endpoint> endpoints;
  endpoints.reserve(options.endpoints.size());
  for (const std::string& spec : options.endpoints) {
    CHARLES_ASSIGN_OR_RETURN(net::Endpoint endpoint, net::ParseEndpoint(spec));
    endpoints.push_back(std::move(endpoint));
  }
  std::unique_ptr<RemoteBackend> backend(
      new RemoteBackend(std::move(options), std::move(endpoints)));
  return backend;
}

RemoteBackend::RemoteBackend(RemoteBackendOptions options,
                             std::vector<net::Endpoint> endpoints)
    : options_(std::move(options)),
      max_frame_bytes_(options_.max_frame_bytes > 0 ? options_.max_frame_bytes
                                                    : kRemoteMaxFrameBytes),
      registry_(std::move(endpoints)) {
  registry_.StartHealthChecks(options_.health_check_interval_ms,
                              options_.connect_timeout_ms, max_frame_bytes_);
}

RemoteBackend::~RemoteBackend() { registry_.StopHealthChecks(); }

Result<RemoteBackend::InstallBundle> RemoteBackend::EnsureInstallBundle(
    const ShardInput& input, const ShardPlan& plan) {
  std::lock_guard<std::mutex> lock(input_mu_);
  bool same = key_shortlist_ == input.shortlist &&
              key_columns_ == input.columns && key_y_new_ == input.y_new &&
              key_leaves_ == input.leaves &&
              key_num_rows_ == plan.num_rows &&
              key_block_rows_ == plan.block_rows &&
              key_num_shards_ == plan.num_shards();
  if (same && bundle_.payload != nullptr) return bundle_;

  auto payload = std::make_shared<std::string>();
  CHARLES_RETURN_NOT_OK(
      SerializeInstallInput(bundle_.epoch + 1, input, plan, payload.get()));
  bundle_.epoch += 1;
  bundle_.payload = std::move(payload);
  key_shortlist_ = input.shortlist;
  key_columns_ = input.columns;
  key_y_new_ = input.y_new;
  key_leaves_ = input.leaves;
  key_num_rows_ = plan.num_rows;
  key_block_rows_ = plan.block_rows;
  key_num_shards_ = plan.num_shards();
  return bundle_;
}

Result<ShardTaskResult> RemoteBackend::TryExecuteOn(WorkerSession* session,
                                                    const InstallBundle& bundle,
                                                    int64_t shard_index,
                                                    const ShardTask& task,
                                                    bool* transport_failure) {
  *transport_failure = true;  // every early exit below is a transport failure
  std::lock_guard<std::mutex> lock(session->mu);

  // Connect + handshake on demand. A fresh connection always re-installs
  // (installed_epoch resets), so a restarted worker can never serve a task
  // against stale or missing input.
  if (session->fd < 0) {
    CHARLES_ASSIGN_OR_RETURN(
        int fd, net::TcpConnect(session->endpoint, options_.connect_timeout_ms));
    Result<int32_t> version = RemoteClientHandshake(
        fd, options_.connect_timeout_ms, max_frame_bytes_);
    if (!version.ok()) {
      net::CloseFd(fd);
      return version.status();
    }
    session->fd = fd;
    session->wire_version = *version;
    session->installed_epoch = -1;
  }

  auto fail_connection = [&](const Status& status) {
    net::CloseFd(session->fd);
    session->fd = -1;
    session->installed_epoch = -1;
    return status;
  };

  if (session->installed_epoch != bundle.epoch) {
    Status sent = net::WriteFrame(
        session->fd, static_cast<int32_t>(RemoteMessageType::kInstallInput),
        *bundle.payload);
    if (!sent.ok()) return fail_connection(sent);
    Result<net::Frame> reply =
        net::ReadFrame(session->fd, options_.task_timeout_ms, max_frame_bytes_);
    if (!reply.ok()) return fail_connection(reply.status());
    if (reply->type != static_cast<int32_t>(RemoteMessageType::kInstallOk)) {
      return fail_connection(Status::IOError(
          "RemoteBackend: install rejected by " + session->endpoint.ToString() +
          " (frame type " + std::to_string(reply->type) + ")"));
    }
    session->installed_epoch = bundle.epoch;
    registry_.RecordInstall(session);
    {
      static obs::Counter* const install_bytes =
          obs::MetricsRegistry::Global().counter("remote.install_bytes");
      install_bytes->Add(static_cast<int64_t>(bundle.payload->size()));
    }
  }

  // Trace context of the dispatching pool thread (the coordinator installed
  // it: run id + dispatch span). The request carries it to the worker; a
  // traced task's composite reply returns the worker's spans, which are
  // rebased below into this process's timeline.
  const obs::ThreadTraceContext trace = obs::CurrentTraceContext();
  const bool traced = trace.recorder != nullptr;

  std::string request;
  SerializeExecuteRequest(bundle.epoch, shard_index, trace.run_id,
                          trace.span_id, traced, task, &request);
  registry_.RecordDispatch(session);
  const int64_t send_ns = obs::TraceRecorder::NowNs();
  Status sent = net::WriteFrame(
      session->fd, static_cast<int32_t>(RemoteMessageType::kExecuteTask),
      request);
  if (!sent.ok()) return fail_connection(sent);
  Result<net::Frame> reply =
      net::ReadFrame(session->fd, options_.task_timeout_ms, max_frame_bytes_);
  if (!reply.ok()) return fail_connection(reply.status());
  const int64_t reply_ns = obs::TraceRecorder::NowNs();

  if (reply->type == static_cast<int32_t>(RemoteMessageType::kTaskError)) {
    // The worker ran and deterministically refused or failed the task. The
    // connection is fine; the error would repeat on any worker — propagate.
    *transport_failure = false;
    return ParseStatusPayload(reply->payload)
        .WithContext("RemoteBackend: worker " + session->endpoint.ToString());
  }
  if (reply->type != static_cast<int32_t>(RemoteMessageType::kTaskOk)) {
    return fail_connection(Status::IOError(
        "RemoteBackend: unexpected reply frame type " +
        std::to_string(reply->type) + " from " + session->endpoint.ToString()));
  }
  Result<ShardTaskResult> result = [&]() -> Result<ShardTaskResult> {
    if (!traced) {
      return ShardTaskResult::Deserialize(reply->payload.data(),
                                          reply->payload.size());
    }
    Result<TracedTaskReply> parsed =
        ParseTracedTaskReply(reply->payload.data(), reply->payload.size());
    if (!parsed.ok()) return parsed.status();
    // Rebase the worker's relative timestamps into our dispatch span. The
    // two steady clocks share no epoch, so anchor the worker's first span
    // at send time plus half the non-compute round-trip slack — the usual
    // symmetric-latency estimate — and never before the send itself.
    if (!parsed->spans.empty()) {
      const int64_t worker_total_ns = parsed->spans.front().dur_ns > 0
                                          ? parsed->spans.front().dur_ns
                                          : 0;
      int64_t slack_ns = (reply_ns - send_ns) - worker_total_ns;
      if (slack_ns < 0) slack_ns = 0;
      const int64_t anchor_ns = send_ns + slack_ns / 2;
      trace.recorder->ImportSpans(parsed->spans, trace.span_id, anchor_ns,
                                  1000 + static_cast<uint64_t>(shard_index));
    }
    return std::move(parsed->result);
  }();
  if (!result.ok()) {
    return fail_connection(result.status().WithContext(
        "RemoteBackend: malformed result from " + session->endpoint.ToString()));
  }
  if (result->shard != shard_index) {
    return fail_connection(Status::IOError(
        "RemoteBackend: worker " + session->endpoint.ToString() +
        " answered for shard " + std::to_string(result->shard) +
        ", expected " + std::to_string(shard_index)));
  }
  *transport_failure = false;
  return result;
}

Result<ShardTaskResult> RemoteBackend::ExecuteTask(const ShardInput& input,
                                                   const ShardPlan& plan,
                                                   int64_t shard_index,
                                                   const ShardTask& task) {
  CHARLES_ASSIGN_OR_RETURN(InstallBundle bundle,
                           EnsureInstallBundle(input, plan));
  tasks_dispatched_.fetch_add(1);

  Status last_error = Status::OK();
  WorkerSession* failed_on = nullptr;
  for (int attempt = 0; attempt <= options_.max_task_retries; ++attempt) {
    WorkerSession* session = registry_.Acquire(failed_on);
    if (session == nullptr) {
      // Fleet ran dry: one synchronous readmission sweep before giving up.
      if (!registry_.ReProbe(options_.connect_timeout_ms, max_frame_bytes_)) {
        break;
      }
      session = registry_.Acquire(failed_on);
      if (session == nullptr) session = registry_.Acquire();
      if (session == nullptr) break;
    }
    bool transport_failure = false;
    Result<ShardTaskResult> result =
        TryExecuteOn(session, bundle, shard_index, task, &transport_failure);
    if (result.ok() || !transport_failure) return result;

    if (result.status().IsInvalidArgument()) {
      // Handshake version rejection (RemoteClientHandshake's one
      // InvalidArgument) — exclude the worker permanently and reassign; no
      // amount of retrying makes a version-skewed worker safe to merge from.
      registry_.MarkVersionRejected(session, result.status().message());
    } else {
      registry_.RecordFailure(session);
      registry_.MarkUnhealthy(session, result.status().message());
    }
    last_error = result.status();
    failed_on = session;
    if (attempt < options_.max_task_retries) {
      task_retries_.fetch_add(1);
      int backoff = BackoffMs(options_.retry_backoff_ms, attempt);
      if (backoff > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      }
    }
  }
  std::string detail = last_error.ok()
                           ? "no healthy worker available"
                           : last_error.ToString();
  return Status::IOError("RemoteBackend: shard " + std::to_string(shard_index) +
                         " failed after " +
                         std::to_string(options_.max_task_retries + 1) +
                         " attempts: " + detail);
}

RemoteBackendDiagnostics RemoteBackend::Diagnostics() const {
  RemoteBackendDiagnostics diagnostics;
  diagnostics.tasks_dispatched = tasks_dispatched_.load();
  diagnostics.task_retries = task_retries_.load();
  diagnostics.workers = registry_.Snapshot();
  for (const RemoteWorkerCounters& worker : diagnostics.workers) {
    diagnostics.input_installs += worker.input_installs;
  }
  {
    std::lock_guard<std::mutex> lock(input_mu_);
    diagnostics.input_epochs = bundle_.epoch;
  }
  return diagnostics;
}

}  // namespace charles
