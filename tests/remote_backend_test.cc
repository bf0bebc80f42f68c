/// \file
/// RemoteBackend over loopback workers: install-bundle round trips,
/// coordinator-level parity with InProcessBackend for the kLeafMoments task
/// kind, install-once-per-epoch accounting, wire-version negotiation
/// (skewed workers excluded at handshake, never merged), deterministic
/// kTaskError propagation without retry, and the headline engine-level
/// contract — kRemote runs bit-identical to unsharded runs on both
/// workloads at 1/2/8 shards.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "distributed/coordinator.h"
#include "distributed/in_process_backend.h"
#include "distributed/remote_backend.h"
#include "distributed/remote_protocol.h"
#include "distributed/shard_planner.h"
#include "distributed/worker_service.h"
#include "net/frame.h"
#include "net/socket.h"
#include "workload/billionaires_gen.h"
#include "workload/employee_gen.h"
#include "test_fixtures.h"

namespace charles {
namespace {

// --- Protocol payload round trips -------------------------------------------

TEST(RemoteProtocolTest, HandshakePayloadsRoundTrip) {
  RemoteVersionRange range =
      ParseVersionRange(SerializeVersionRange(3, 9)).ValueOrDie();
  EXPECT_EQ(range.min, 3);
  EXPECT_EQ(range.max, 9);
  EXPECT_EQ(ParseChosenVersion(SerializeChosenVersion(7)).ValueOrDie(), 7);
  EXPECT_TRUE(ParseVersionRange("abc").status().IsIOError());
  EXPECT_TRUE(ParseChosenVersion("").status().IsIOError());
}

TEST(RemoteProtocolTest, StatusPayloadPreservesCategoryAndMessage) {
  Status decoded = ParseStatusPayload(
      SerializeStatusPayload(Status::InvalidArgument("probe leaf out of range")));
  EXPECT_TRUE(decoded.IsInvalidArgument());
  EXPECT_NE(decoded.message().find("probe leaf out of range"), std::string::npos);
  // A worker never errors with OK; an OK payload is itself a wire error.
  EXPECT_TRUE(ParseStatusPayload(SerializeStatusPayload(Status::OK())).IsIOError());
  EXPECT_TRUE(ParseStatusPayload("garbage").IsIOError());
}

TEST(RemoteProtocolTest, InstallBundleRoundTripIsExact) {
  SyntheticInput s(500);
  ShardPlan plan = PlanShards(500, 64, 3);
  std::string bundle;
  ASSERT_TRUE(SerializeInstallInput(17, s.input, plan, &bundle).ok());
  std::unique_ptr<InstalledInput> installed =
      DeserializeInstallInput(bundle.data(), bundle.size()).ValueOrDie();
  EXPECT_EQ(installed->epoch, 17);
  EXPECT_EQ(installed->plan.ToString(), plan.ToString());
  EXPECT_EQ(installed->shortlist, s.shortlist);
  for (const std::string& name : s.shortlist) {
    const std::vector<double>* original = s.columns.Find(name);
    const std::vector<double>* shipped = installed->columns.Find(name);
    ASSERT_NE(shipped, nullptr) << name;
    ASSERT_EQ(shipped->size(), original->size());
    EXPECT_EQ(std::memcmp(shipped->data(), original->data(),
                          original->size() * sizeof(double)),
              0)
        << name;
  }
  ASSERT_EQ(installed->leaves.size(), s.leaf_storage.size());
  for (size_t l = 0; l < s.leaf_storage.size(); ++l) {
    EXPECT_EQ(installed->leaves[l].indices(), s.leaf_storage[l].indices());
  }
  // The kernel over the worker's owned reconstruction produces the same
  // bytes as over the coordinator's original view — the determinism hinge.
  // A subset task as well as the full one: leaf indices must address the
  // same row sets on both sides.
  ShardTask subset;
  subset.leaves = {2};
  for (const ShardTask& task : {MakeMomentsTask(s.input), subset}) {
    for (int64_t shard = 0; shard < plan.num_shards(); ++shard) {
      ShardTaskResult original =
          ExecuteShardTaskKernel(s.input, plan, shard, task).ValueOrDie();
      ShardTaskResult reconstructed =
          ExecuteShardTaskKernel(installed->View(), installed->plan, shard, task)
              .ValueOrDie();
      std::string original_wire, reconstructed_wire;
      original.SerializeTo(&original_wire);
      reconstructed.SerializeTo(&reconstructed_wire);
      // elapsed_seconds differs per run; zero it before the byte compare.
      original.elapsed_seconds = 0.0;
      reconstructed.elapsed_seconds = 0.0;
      original_wire.clear();
      reconstructed_wire.clear();
      original.SerializeTo(&original_wire);
      reconstructed.SerializeTo(&reconstructed_wire);
      EXPECT_EQ(original_wire, reconstructed_wire)
          << task.leaves.size() << " leaves, shard " << shard;
    }
  }
}

TEST(RemoteProtocolTest, MalformedInstallBundleRejected) {
  SyntheticInput s(120);
  ShardPlan plan = PlanShards(120, 64, 2);
  std::string bundle;
  ASSERT_TRUE(SerializeInstallInput(1, s.input, plan, &bundle).ok());
  EXPECT_TRUE(DeserializeInstallInput(bundle.data(), bundle.size()).ok());
  EXPECT_TRUE(DeserializeInstallInput(bundle.data(), bundle.size() / 2)
                  .status()
                  .IsIOError());
  EXPECT_TRUE(DeserializeInstallInput(bundle.data(), 3).status().IsIOError());
  std::string corrupted = bundle;
  corrupted[0] = 'X';
  EXPECT_TRUE(DeserializeInstallInput(corrupted.data(), corrupted.size())
                  .status()
                  .IsIOError());
  std::string trailing = bundle + "!";
  EXPECT_TRUE(DeserializeInstallInput(trailing.data(), trailing.size())
                  .status()
                  .IsIOError());
}

// --- Loopback execution -----------------------------------------------------

std::unique_ptr<LoopbackWorker> StartWorker(WorkerServiceOptions options = {}) {
  return LoopbackWorker::Start(std::move(options)).ValueOrDie();
}

std::unique_ptr<RemoteBackend> MakeBackend(
    const std::vector<std::string>& endpoints) {
  RemoteBackendOptions options;
  options.endpoints = endpoints;
  options.retry_backoff_ms = 1;  // keep retry tests fast
  return RemoteBackend::Create(std::move(options)).ValueOrDie();
}

TEST(RemoteBackendTest, CreateValidatesEndpoints) {
  EXPECT_TRUE(RemoteBackend::Create({}).status().IsInvalidArgument());
  RemoteBackendOptions bad;
  bad.endpoints = {"127.0.0.1:9400", "not-an-endpoint"};
  EXPECT_TRUE(RemoteBackend::Create(std::move(bad)).status().IsInvalidArgument());
}

TEST(RemoteBackendTest, CoordinatorParityAllKindsAllShardCounts) {
  SyntheticInput s(777);
  std::unique_ptr<LoopbackWorker> worker = StartWorker();
  std::unique_ptr<RemoteBackend> remote = MakeBackend({worker->endpoint()});
  InProcessBackend in_process;
  for (int shards : {1, 2, 8}) {
    ShardPlan plan = PlanShards(777, 64, shards);
    ShardTask task = MakeMomentsTask(s.input);
    CoordinatorTaskResult expected =
        Coordinator::RunTask(s.input, plan, &in_process, nullptr, task)
            .ValueOrDie();
    CoordinatorTaskResult actual =
        Coordinator::RunTask(s.input, plan, remote.get(), nullptr, task)
            .ValueOrDie();
    SCOPED_TRACE(std::to_string(shards) + " shards");
    ExpectBitIdenticalMerges(expected, actual);
  }
  RemoteBackendDiagnostics diagnostics = remote->Diagnostics();
  EXPECT_EQ(diagnostics.task_retries, 0);
  ASSERT_EQ(diagnostics.workers.size(), 1u);
  EXPECT_TRUE(diagnostics.workers[0].healthy);
}

TEST(RemoteBackendTest, InputShipsOncePerEpochAndPlanChangeRolls) {
  SyntheticInput s(400);
  std::unique_ptr<LoopbackWorker> worker = StartWorker();
  std::unique_ptr<RemoteBackend> remote = MakeBackend({worker->endpoint()});
  ShardPlan plan = PlanShards(400, 64, 4);
  int64_t tasks = 0;
  ShardTask subset;
  subset.leaves = {1};
  // Two rounds over one (snapshot, plan): the input still ships once.
  for (const ShardTask& task : {MakeMomentsTask(s.input), subset}) {
    for (int64_t shard = 0; shard < plan.num_shards(); ++shard) {
      ASSERT_TRUE(remote->ExecuteTask(s.input, plan, shard, task).ok());
      ++tasks;
    }
  }
  RemoteBackendDiagnostics after_first = remote->Diagnostics();
  EXPECT_EQ(after_first.input_epochs, 1);
  EXPECT_EQ(after_first.input_installs, 1);  // one worker, one epoch
  EXPECT_EQ(after_first.tasks_dispatched, tasks);

  // A different plan over the same snapshot is a new epoch: one reinstall.
  ShardPlan replanned = PlanShards(400, 64, 2);
  ASSERT_TRUE(
      remote->ExecuteTask(s.input, replanned, 0, MakeMomentsTask(s.input)).ok());
  RemoteBackendDiagnostics after_replan = remote->Diagnostics();
  EXPECT_EQ(after_replan.input_epochs, 2);
  EXPECT_EQ(after_replan.input_installs, 2);
}

TEST(RemoteBackendTest, DeterministicTaskErrorPropagatesWithoutRetry) {
  SyntheticInput s(200);
  std::unique_ptr<LoopbackWorker> worker = StartWorker();
  std::unique_ptr<RemoteBackend> remote = MakeBackend({worker->endpoint()});
  ShardPlan plan = PlanShards(200, 64, 2);
  ShardTask bad_task;
  bad_task.leaves = {99};  // out of range: the kernel fails deterministically
  Status status = remote->ExecuteTask(s.input, plan, 0, bad_task).status();
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  // Rerunning a deterministic failure elsewhere would only repeat it: no
  // retry, and the worker is still healthy (its transport is fine).
  RemoteBackendDiagnostics diagnostics = remote->Diagnostics();
  EXPECT_EQ(diagnostics.task_retries, 0);
  ASSERT_EQ(diagnostics.workers.size(), 1u);
  EXPECT_TRUE(diagnostics.workers[0].healthy);
  // The connection survives: a good task right after succeeds.
  EXPECT_TRUE(
      remote->ExecuteTask(s.input, plan, 0, MakeMomentsTask(s.input)).ok());
}

TEST(RemoteBackendTest, VersionSkewedWorkerIsExcludedAtHandshake) {
  SyntheticInput s(300);
  WorkerServiceOptions skewed;
  skewed.version_min = 99;  // disjoint from [kRemoteWireVersionMin, Max]
  skewed.version_max = 99;
  std::unique_ptr<LoopbackWorker> bad_worker = StartWorker(std::move(skewed));
  std::unique_ptr<LoopbackWorker> good_worker = StartWorker();
  // The skewed worker is listed first, so it receives the first dispatch
  // attempt — which must fail the handshake and reassign, never merge.
  std::unique_ptr<RemoteBackend> remote =
      MakeBackend({bad_worker->endpoint(), good_worker->endpoint()});
  ShardPlan plan = PlanShards(300, 64, 3);
  InProcessBackend in_process;
  CoordinatorTaskResult expected =
      Coordinator::RunTask(s.input, plan, &in_process, nullptr,
                           MakeMomentsTask(s.input))
          .ValueOrDie();
  CoordinatorTaskResult actual =
      Coordinator::RunTask(s.input, plan, remote.get(), nullptr,
                           MakeMomentsTask(s.input))
          .ValueOrDie();
  ExpectBitIdenticalMerges(expected, actual);

  RemoteBackendDiagnostics diagnostics = remote->Diagnostics();
  ASSERT_EQ(diagnostics.workers.size(), 2u);
  EXPECT_TRUE(diagnostics.workers[0].version_rejected);
  EXPECT_FALSE(diagnostics.workers[0].healthy);
  EXPECT_NE(diagnostics.workers[0].last_error.find("wire versions"),
            std::string::npos)
      << diagnostics.workers[0].last_error;
  EXPECT_EQ(diagnostics.workers[0].tasks_dispatched, 0);  // never ran a task
  EXPECT_TRUE(diagnostics.workers[1].healthy);
  EXPECT_GT(diagnostics.workers[1].tasks_dispatched, 0);
}

TEST(RemoteBackendTest, PreviousWireVersionWorkerIsRejectedAtHandshake) {
  // The concrete v5 → v6 skew: a worker from the build before the
  // signal-stats and score-partials kinds were retired (wire range [5, 5])
  // must be excluded at the handshake. If it were allowed to negotiate, it
  // would expect a y_old vector in the install bundle and send CST1 replies
  // with signal and score-probe sections this build no longer parses — the
  // reject is what keeps the skew a clean handshake error instead of a
  // mid-run parse failure.
  SyntheticInput s(200);
  WorkerServiceOptions v5;
  v5.version_min = 5;
  v5.version_max = 5;
  std::unique_ptr<LoopbackWorker> worker = StartWorker(std::move(v5));
  std::unique_ptr<RemoteBackend> remote = MakeBackend({worker->endpoint()});
  ShardPlan plan = PlanShards(200, 64, 2);
  Status status =
      remote->ExecuteTask(s.input, plan, 0, MakeMomentsTask(s.input)).status();
  ASSERT_TRUE(status.IsIOError()) << status.ToString();
  RemoteBackendDiagnostics diagnostics = remote->Diagnostics();
  ASSERT_EQ(diagnostics.workers.size(), 1u);
  EXPECT_TRUE(diagnostics.workers[0].version_rejected);
  EXPECT_EQ(diagnostics.workers[0].tasks_dispatched, 0);
}

TEST(RemoteBackendTest, AllWorkersVersionSkewedFailsWithCleanDiagnostic) {
  SyntheticInput s(200);
  WorkerServiceOptions skewed;
  skewed.version_min = 99;
  skewed.version_max = 99;
  std::unique_ptr<LoopbackWorker> worker = StartWorker(std::move(skewed));
  std::unique_ptr<RemoteBackend> remote = MakeBackend({worker->endpoint()});
  ShardPlan plan = PlanShards(200, 64, 2);
  Status status =
      remote->ExecuteTask(s.input, plan, 0, MakeMomentsTask(s.input)).status();
  ASSERT_TRUE(status.IsIOError()) << status.ToString();
  EXPECT_NE(status.message().find("wire versions"), std::string::npos)
      << status.ToString();
}

TEST(WorkerServiceTest, PingAndShutdownFrames) {
  std::unique_ptr<LoopbackWorker> worker = StartWorker();
  net::Endpoint endpoint{"127.0.0.1", worker->port()};
  int fd = net::TcpConnect(endpoint, 2'000).ValueOrDie();
  int32_t version =
      RemoteClientHandshake(fd, 2'000, kRemoteMaxFrameBytes).ValueOrDie();
  EXPECT_EQ(version, kRemoteWireVersionMax);
  ASSERT_TRUE(net::WriteFrame(
                  fd, static_cast<int32_t>(RemoteMessageType::kPing), "")
                  .ok());
  net::Frame pong = net::ReadFrame(fd, 2'000, kRemoteMaxFrameBytes).ValueOrDie();
  EXPECT_EQ(pong.type, static_cast<int32_t>(RemoteMessageType::kPong));
  ASSERT_TRUE(net::WriteFrame(
                  fd, static_cast<int32_t>(RemoteMessageType::kShutdown), "")
                  .ok());
  net::Frame ack = net::ReadFrame(fd, 2'000, kRemoteMaxFrameBytes).ValueOrDie();
  EXPECT_EQ(ack.type, static_cast<int32_t>(RemoteMessageType::kShutdownOk));
  net::CloseFd(fd);
  worker->Stop();
}

TEST(WorkerServiceTest, ExecuteBeforeInstallFailsCleanly) {
  std::unique_ptr<LoopbackWorker> worker = StartWorker();
  net::Endpoint endpoint{"127.0.0.1", worker->port()};
  int fd = net::TcpConnect(endpoint, 2'000).ValueOrDie();
  ASSERT_TRUE(RemoteClientHandshake(fd, 2'000, kRemoteMaxFrameBytes).ok());
  std::string request;
  SerializeExecuteRequest(/*epoch=*/5, /*shard=*/0, /*run_id=*/0,
                          /*parent_span=*/0, /*traced=*/false,
                          ShardTask{}, &request);
  ASSERT_TRUE(net::WriteFrame(
                  fd, static_cast<int32_t>(RemoteMessageType::kExecuteTask),
                  request)
                  .ok());
  net::Frame reply = net::ReadFrame(fd, 2'000, kRemoteMaxFrameBytes).ValueOrDie();
  EXPECT_EQ(reply.type, static_cast<int32_t>(RemoteMessageType::kTaskError));
  Status decoded = ParseStatusPayload(reply.payload);
  EXPECT_FALSE(decoded.ok());
  EXPECT_NE(decoded.message().find("reinstall"), std::string::npos)
      << decoded.ToString();
  net::CloseFd(fd);
}

// --- Engine-level parity: kRemote vs unsharded ------------------------------

struct Workload {
  Table source;
  Table target;
  CharlesOptions options;
};

Workload MakeEmployeeWorkload() {
  EmployeeGenOptions gen;
  gen.num_rows = 600;
  Workload w;
  w.source = GenerateEmployees(gen).ValueOrDie();
  w.target = MakeEmployeeBonusPolicy().Apply(w.source).ValueOrDie();
  w.options.target_attribute = "bonus";
  w.options.key_columns = {"emp_id"};
  w.options.stats_block_rows = 64;
  w.options.num_threads = 2;
  return w;
}

Workload MakeBillionairesWorkload() {
  BillionairesGenOptions gen;
  gen.num_rows = 700;
  Workload w;
  w.source = GenerateBillionaires(gen).ValueOrDie();
  w.target = MakeMarketPolicy().Apply(w.source).ValueOrDie();
  w.options.target_attribute = "net_worth";
  w.options.key_columns = {"person_id"};
  w.options.stats_block_rows = 64;
  w.options.num_threads = 2;
  return w;
}

void RunRemoteShardParity(const Workload& w) {
  SummaryList unsharded = SummarizeChanges(w.source, w.target, w.options).ValueOrDie();
  ASSERT_FALSE(unsharded.summaries.empty());
  // num_shards = 0 plans one range per pool thread: min(2 threads, blocks).
  EXPECT_EQ(unsharded.shards_used, 2);
  EXPECT_EQ(unsharded.remote_tasks_dispatched, 0);
  std::unique_ptr<LoopbackWorker> worker_a = StartWorker();
  std::unique_ptr<LoopbackWorker> worker_b = StartWorker();
  for (int shards : {1, 2, 8}) {
    CharlesOptions sharded_options = w.options;
    sharded_options.num_shards = shards;
    sharded_options.shard_backend = ShardBackendKind::kRemote;
    sharded_options.remote_workers = {worker_a->endpoint(), worker_b->endpoint()};
    SummaryList sharded =
        SummarizeChanges(w.source, w.target, sharded_options).ValueOrDie();
    EXPECT_EQ(sharded.shards_used, shards) << "requested " << shards;
    EXPECT_GT(sharded.shard_rows_scanned, 0);
    EXPECT_GT(sharded.remote_tasks_dispatched, 0);
    EXPECT_EQ(sharded.remote_task_retries, 0);
    EXPECT_GT(sharded.remote_input_installs, 0);
    // One (snapshot, plan) epoch per run: at most one install per worker.
    EXPECT_LE(sharded.remote_input_installs,
              static_cast<int64_t>(sharded.remote_workers.size()));
    ASSERT_EQ(sharded.remote_workers.size(), 2u);
    ExpectIdenticalRuns(unsharded, sharded);
  }
}

TEST(RemoteParityTest, EmployeeRemoteBitIdenticalAt1_2_8Shards) {
  RunRemoteShardParity(MakeEmployeeWorkload());
}

TEST(RemoteParityTest, BillionairesRemoteBitIdenticalAt1_2_8Shards) {
  RunRemoteShardParity(MakeBillionairesWorkload());
}

TEST(RemoteParityTest, TraceSpansPropagateFromWorkerToCoordinator) {
  // The headline observability contract: one remote run with tracing on
  // yields a single merged trace holding the coordinator's stage/round/
  // dispatch spans AND the workers' task spans, all under one trace id.
  Workload w = MakeEmployeeWorkload();
  std::unique_ptr<LoopbackWorker> worker = StartWorker();
  CharlesOptions options = w.options;
  options.num_shards = 2;
  options.shard_backend = ShardBackendKind::kRemote;
  options.remote_workers = {worker->endpoint()};
  options.trace = true;
  SummaryList traced =
      SummarizeChanges(w.source, w.target, options).ValueOrDie();
  ASSERT_NE(traced.trace, nullptr);
  ASSERT_EQ(traced.run_id.size(), 16u);

  // The trace id is the run id — the cross-process correlation key.
  EXPECT_EQ(obs::FormatRunId(traced.trace->trace_id()), traced.run_id);

  std::vector<obs::SpanRecord> spans = traced.trace->Snapshot();
  ASSERT_FALSE(spans.empty());
  auto count_named = [&](const char* name) {
    int64_t n = 0;
    for (const obs::SpanRecord& span : spans) {
      if (span.name == name) ++n;
    }
    return n;
  };
  EXPECT_GT(count_named("dispatch"), 0);
  EXPECT_GT(count_named("merge"), 0);
  EXPECT_GT(count_named("worker:task"), 0);

  // Every imported worker span is stitched into the coordinator's tree:
  // parents resolve, ids are unique, and a worker:task span parents on a
  // dispatch span whose interval contains it.
  std::vector<const obs::SpanRecord*> by_id(spans.size() + 1, nullptr);
  for (const obs::SpanRecord& span : spans) {
    ASSERT_GE(span.id, 1u);
    ASSERT_LE(span.id, spans.size());
    ASSERT_EQ(by_id[span.id], nullptr) << "duplicate span id " << span.id;
    by_id[span.id] = &span;
  }
  for (const obs::SpanRecord& span : spans) {
    if (span.parent != 0) {
      ASSERT_LE(span.parent, spans.size()) << span.name;
      EXPECT_NE(by_id[span.parent], nullptr) << span.name;
    }
    if (span.name == "worker:task") {
      ASSERT_NE(span.parent, 0u);
      const obs::SpanRecord* parent = by_id[span.parent];
      ASSERT_NE(parent, nullptr);
      EXPECT_EQ(parent->name, "dispatch");
      EXPECT_GE(span.start_ns, parent->start_ns);
      EXPECT_GE(span.dur_ns, 0);
    }
  }

  // The Chrome export carries both sides of the trace and the shared id.
  std::string json = traced.trace->ToChromeTraceJson();
  EXPECT_NE(json.find("worker:task"), std::string::npos);
  EXPECT_NE(json.find("dispatch"), std::string::npos);
  EXPECT_NE(json.find(traced.run_id), std::string::npos);

  // Tracing off: no recorder is attached, and the output is untouched —
  // the parity suites above run with trace off and pin bit-identity.
  options.trace = false;
  SummaryList untraced =
      SummarizeChanges(w.source, w.target, options).ValueOrDie();
  EXPECT_EQ(untraced.trace, nullptr);
  EXPECT_EQ(untraced.run_id, traced.run_id);  // same inputs, same fingerprint
  ExpectIdenticalRuns(untraced, traced);
}

TEST(RemoteParityTest, RemoteBackendRequiresWorkerEndpoints) {
  Workload w = MakeEmployeeWorkload();
  CharlesOptions options = w.options;
  options.num_shards = 2;
  options.shard_backend = ShardBackendKind::kRemote;
  // No remote_workers configured: rejected at validation, before any dial.
  EXPECT_TRUE(
      SummarizeChanges(w.source, w.target, options).status().IsInvalidArgument());
}

}  // namespace
}  // namespace charles
