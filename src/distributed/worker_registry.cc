#include "distributed/worker_registry.h"

#include <utility>

#include "distributed/remote_protocol.h"
#include "net/frame.h"
#include "obs/metrics.h"

namespace charles {

namespace {

/// \name Fleet health-transition counters.
///
/// Counted on *transitions* only (healthy → unhealthy and back), not on
/// every probe, so the rates read as churn: a flapping worker shows up as a
/// climbing pair, a steady fleet as flat lines. Static-local pointers keep
/// the registry lookup off the per-call path.
/// @{
void CountUnhealthyTransition() {
  static obs::Counter* const counter =
      obs::MetricsRegistry::Global().counter("remote.worker_unhealthy");
  counter->Increment();
}

void CountHealthyTransition() {
  static obs::Counter* const counter =
      obs::MetricsRegistry::Global().counter("remote.worker_healthy");
  counter->Increment();
}

void CountVersionRejected() {
  static obs::Counter* const counter =
      obs::MetricsRegistry::Global().counter("remote.worker_version_rejected");
  counter->Increment();
}
/// @}

}  // namespace

WorkerRegistry::WorkerRegistry(std::vector<net::Endpoint> endpoints) {
  sessions_.reserve(endpoints.size());
  for (net::Endpoint& endpoint : endpoints) {
    sessions_.push_back(std::make_unique<WorkerSession>(std::move(endpoint)));
  }
}

WorkerRegistry::~WorkerRegistry() {
  for (std::unique_ptr<WorkerSession>& session : sessions_) {
    std::lock_guard<std::mutex> lock(session->mu);
    net::CloseFd(session->fd);
    session->fd = -1;
  }
}

WorkerSession* WorkerRegistry::Acquire(const WorkerSession* exclude) {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t n = sessions_.size();
  for (size_t step = 0; step < n; ++step) {
    WorkerSession* session = sessions_[(round_robin_cursor_ + step) % n].get();
    if (!session->healthy || session == exclude) continue;
    round_robin_cursor_ = (round_robin_cursor_ + step + 1) % n;
    return session;
  }
  // Only the excluded worker (if any) is left healthy: better it than
  // nothing — its failure may have been a one-off.
  if (exclude != nullptr) {
    for (const std::unique_ptr<WorkerSession>& session : sessions_) {
      if (session.get() == exclude && session->healthy) {
        return const_cast<WorkerSession*>(exclude);
      }
    }
  }
  return nullptr;
}

void WorkerRegistry::MarkUnhealthy(WorkerSession* session,
                                   const std::string& error) {
  std::lock_guard<std::mutex> lock(mu_);
  if (session->healthy) CountUnhealthyTransition();
  session->healthy = false;
  session->last_error = error;
}

void WorkerRegistry::MarkVersionRejected(WorkerSession* session,
                                         const std::string& error) {
  std::lock_guard<std::mutex> lock(mu_);
  if (session->healthy) CountUnhealthyTransition();
  if (!session->version_rejected) CountVersionRejected();
  session->healthy = false;
  session->version_rejected = true;
  session->last_error = error;
}

void WorkerRegistry::MarkHealthy(WorkerSession* session) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!session->healthy) CountHealthyTransition();
  session->healthy = true;
}

void WorkerRegistry::RecordDispatch(WorkerSession* session) {
  std::lock_guard<std::mutex> lock(mu_);
  ++session->tasks_dispatched;
}

void WorkerRegistry::RecordFailure(WorkerSession* session) {
  std::lock_guard<std::mutex> lock(mu_);
  ++session->tasks_failed;
}

void WorkerRegistry::RecordInstall(WorkerSession* session) {
  std::lock_guard<std::mutex> lock(mu_);
  ++session->input_installs;
}

bool WorkerRegistry::ProbeOne(WorkerSession* session, int connect_timeout_ms,
                              int64_t max_frame_bytes) {
  Result<int> fd = net::TcpConnect(session->endpoint, connect_timeout_ms);
  if (!fd.ok()) {
    MarkUnhealthy(session, fd.status().message());
    return false;
  }
  Result<int32_t> version =
      RemoteClientHandshake(*fd, connect_timeout_ms, max_frame_bytes);
  Status probe_status = version.status();
  if (version.ok()) {
    // A ping proves the worker actually serves requests, not just accepts.
    probe_status = net::WriteFrame(
        *fd, static_cast<int32_t>(RemoteMessageType::kPing), "");
    if (probe_status.ok()) {
      Result<net::Frame> pong =
          net::ReadFrame(*fd, connect_timeout_ms, max_frame_bytes);
      if (!pong.ok()) {
        probe_status = pong.status();
      } else if (pong->type != static_cast<int32_t>(RemoteMessageType::kPong)) {
        probe_status = Status::IOError("probe: unexpected reply to ping");
      }
    }
  }
  net::CloseFd(*fd);
  if (!probe_status.ok()) {
    if (probe_status.IsInvalidArgument()) {
      MarkVersionRejected(session, probe_status.message());
    } else {
      std::lock_guard<std::mutex> lock(mu_);
      if (session->healthy) CountUnhealthyTransition();
      session->healthy = false;
      session->last_error = probe_status.message();
    }
    return false;
  }
  MarkHealthy(session);
  return true;
}

bool WorkerRegistry::ReProbe(int connect_timeout_ms, int64_t max_frame_bytes) {
  std::vector<WorkerSession*> candidates;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::unique_ptr<WorkerSession>& session : sessions_) {
      if (!session->healthy && !session->version_rejected) {
        candidates.push_back(session.get());
      }
    }
  }
  bool readmitted = false;
  for (WorkerSession* session : candidates) {
    if (ProbeOne(session, connect_timeout_ms, max_frame_bytes)) {
      readmitted = true;
    }
  }
  return readmitted;
}

std::vector<RemoteWorkerCounters> WorkerRegistry::Snapshot() const {
  std::vector<RemoteWorkerCounters> out;
  out.reserve(sessions_.size());
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::unique_ptr<WorkerSession>& session : sessions_) {
    RemoteWorkerCounters counters;
    counters.endpoint = session->endpoint.ToString();
    counters.healthy = session->healthy;
    counters.version_rejected = session->version_rejected;
    counters.tasks_dispatched = session->tasks_dispatched;
    counters.tasks_failed = session->tasks_failed;
    counters.input_installs = session->input_installs;
    counters.last_error = session->last_error;
    out.push_back(std::move(counters));
  }
  return out;
}

}  // namespace charles
