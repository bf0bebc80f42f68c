/// \file
/// RemoteBackend fault tolerance (ISSUE 6 satellite): a remote worker
/// SIGKILLed mid-shard must be marked unhealthy and its task reassigned to
/// a surviving worker, with the merged output still bit-identical to an
/// in-process run — at the coordinator level and through a full engine run.
///
/// The killer worker is a forked charles_worker-shaped process (a real
/// WorkerService over a real TCP listener) whose task hook raises SIGKILL
/// on the first kExecuteTask, so the connection tears exactly mid-request.
/// Fork-based: keep these tests out of any TSan test filter.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "distributed/coordinator.h"
#include "distributed/in_process_backend.h"
#include "distributed/remote_backend.h"
#include "distributed/shard_planner.h"
#include "distributed/worker_service.h"
#include "net/io.h"
#include "net/socket.h"
#include "workload/employee_gen.h"

namespace charles {
namespace {

struct SyntheticInput {
  std::vector<std::string> shortlist;
  ColumnCache columns;
  std::vector<double> y_old;
  std::vector<double> y_new;
  std::vector<RowSet> leaf_storage;
  ShardInput input;
};

SyntheticInput MakeSyntheticInput(int64_t rows) {
  SyntheticInput s;
  s.shortlist = {"a", "b"};
  std::vector<double> a(static_cast<size_t>(rows)), b(static_cast<size_t>(rows));
  s.y_old.resize(static_cast<size_t>(rows));
  s.y_new.resize(static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) {
    size_t i = static_cast<size_t>(r);
    a[i] = 1000.0 + 3.0 * static_cast<double>(r);
    b[i] = 50.0 - 0.25 * static_cast<double>(r % 97);
    s.y_old[i] = 10.0 + 0.5 * a[i];
    s.y_new[i] = (r % 3 == 0) ? s.y_old[i] : 1.05 * s.y_old[i] + 2.0 * b[i];
  }
  s.columns.Insert("a", std::move(a));
  s.columns.Insert("b", std::move(b));
  std::vector<int64_t> stride, prefix;
  for (int64_t r = 0; r < rows; r += 3) stride.push_back(r);
  for (int64_t r = 0; r < rows / 2; ++r) prefix.push_back(r);
  s.leaf_storage.push_back(RowSet::All(rows));
  s.leaf_storage.push_back(RowSet(std::move(stride)));
  s.leaf_storage.push_back(RowSet(std::move(prefix)));
  s.input.shortlist = &s.shortlist;
  s.input.columns = &s.columns;
  s.input.y_new = &s.y_new;
  for (const RowSet& leaf : s.leaf_storage) s.input.leaves.push_back(&leaf);
  return s;
}

ShardTask MakeMomentsTask(const ShardInput& input) {
  ShardTask task;
  for (size_t l = 0; l < input.leaves.size(); ++l) {
    task.leaves.push_back(static_cast<int64_t>(l));
  }
  return task;
}

void ExpectBitIdenticalMerges(const CoordinatorTaskResult& expected,
                              const CoordinatorTaskResult& actual) {
  EXPECT_EQ(expected.rows_scanned, actual.rows_scanned);
  ASSERT_EQ(expected.leaves.size(), actual.leaves.size());
  for (size_t l = 0; l < expected.leaves.size(); ++l) {
    EXPECT_TRUE(expected.leaves[l].stats.BitIdenticalTo(actual.leaves[l].stats))
        << "leaf " << l;
  }
}

/// A forked worker process that serves the remote protocol normally until
/// its first kExecuteTask, then raises SIGKILL mid-request — the hard-loss
/// shape (no FIN from a clean close of the process's sockets happens before
/// the kernel reaps it, so the coordinator sees a torn stream).
struct KillerWorker {
  pid_t pid = -1;
  int port = 0;

  std::string endpoint() const { return "127.0.0.1:" + std::to_string(port); }

  /// SIGKILL (idempotent; it is usually already dead) + reap.
  void Reap() {
    if (pid <= 0) return;
    kill(pid, SIGKILL);
    int wait_status = 0;
    waitpid(pid, &wait_status, 0);
    pid = -1;
  }
};

KillerWorker SpawnKillerWorker() {
  int port_pipe[2];
  EXPECT_EQ(pipe(port_pipe), 0);
  pid_t pid = fork();
  if (pid == 0) {
    // Child: bind an ephemeral loopback port, report it, serve until the
    // first task's hook kills us.
    close(port_pipe[0]);
    Result<net::TcpListener> bound = net::TcpListener::Bind("127.0.0.1", 0);
    if (!bound.ok()) _exit(3);
    net::TcpListener listener = std::move(bound).ValueOrDie();
    int port = listener.port();
    if (!net::WriteFull(port_pipe[1], &port, sizeof(port)).ok()) _exit(4);
    close(port_pipe[1]);
    WorkerServiceOptions options;
    options.task_hook = [](int64_t) { raise(SIGKILL); };
    WorkerService service(std::move(options));
    service.Serve(listener, nullptr);
    _exit(0);
  }
  close(port_pipe[1]);
  KillerWorker worker;
  worker.pid = pid;
  EXPECT_TRUE(net::ReadFull(port_pipe[0], &worker.port, sizeof(worker.port)).ok());
  close(port_pipe[0]);
  return worker;
}

TEST(RemoteFaultTest, WorkerKilledMidShardIsReassignedBitIdentically) {
  SyntheticInput s = MakeSyntheticInput(500);
  KillerWorker killer = SpawnKillerWorker();
  ASSERT_GT(killer.port, 0);
  std::unique_ptr<LoopbackWorker> survivor = LoopbackWorker::Start().ValueOrDie();
  RemoteBackendOptions options;
  // The killer is listed first so the round-robin hands it the first task.
  options.endpoints = {killer.endpoint(), survivor->endpoint()};
  options.retry_backoff_ms = 1;
  std::unique_ptr<RemoteBackend> remote =
      RemoteBackend::Create(std::move(options)).ValueOrDie();
  InProcessBackend in_process;
  ShardPlan plan = PlanShards(500, 64, 8);
  // A second round after the loss (a leaf subset) must run on the survivor
  // alone and still merge bit-identically.
  ShardTask subset;
  subset.leaves = {1};
  for (const ShardTask& task : {MakeMomentsTask(s.input), subset}) {
    SCOPED_TRACE(std::to_string(task.leaves.size()) + " leaves");
    CoordinatorTaskResult expected =
        Coordinator::RunTask(s.input, plan, &in_process, nullptr, task)
            .ValueOrDie();
    CoordinatorTaskResult actual =
        Coordinator::RunTask(s.input, plan, remote.get(), nullptr, task)
            .ValueOrDie();
    ExpectBitIdenticalMerges(expected, actual);
  }
  RemoteBackendDiagnostics diagnostics = remote->Diagnostics();
  EXPECT_GE(diagnostics.task_retries, 1);
  ASSERT_EQ(diagnostics.workers.size(), 2u);
  EXPECT_FALSE(diagnostics.workers[0].healthy);
  EXPECT_FALSE(diagnostics.workers[0].version_rejected);
  EXPECT_GE(diagnostics.workers[0].tasks_failed, 1);
  EXPECT_TRUE(diagnostics.workers[1].healthy);
  EXPECT_GT(diagnostics.workers[1].tasks_dispatched, 0);
  killer.Reap();
}

TEST(RemoteFaultTest, AllWorkersLostSurfacesABoundedError) {
  SyntheticInput s = MakeSyntheticInput(300);
  KillerWorker killer = SpawnKillerWorker();
  ASSERT_GT(killer.port, 0);
  RemoteBackendOptions options;
  options.endpoints = {killer.endpoint()};  // no survivor to fail over to
  options.retry_backoff_ms = 1;
  options.max_task_retries = 2;
  std::unique_ptr<RemoteBackend> remote =
      RemoteBackend::Create(std::move(options)).ValueOrDie();
  ShardPlan plan = PlanShards(300, 64, 2);
  Status status =
      remote->ExecuteTask(s.input, plan, 0, MakeMomentsTask(s.input)).status();
  ASSERT_TRUE(status.IsIOError()) << status.ToString();
  EXPECT_NE(status.message().find("attempts"), std::string::npos)
      << status.ToString();
  killer.Reap();
}

// --- Engine level: worker dies inside a real run ----------------------------

void ExpectIdenticalRuns(const SummaryList& expected, const SummaryList& actual) {
  ASSERT_EQ(expected.summaries.size(), actual.summaries.size());
  for (size_t i = 0; i < expected.summaries.size(); ++i) {
    const ChangeSummary& a = expected.summaries[i];
    const ChangeSummary& b = actual.summaries[i];
    EXPECT_EQ(a.Signature(), b.Signature()) << "rank " << i;
    double sa = a.scores().score, sb = b.scores().score;
    double aa = a.scores().accuracy, ab = b.scores().accuracy;
    EXPECT_EQ(std::memcmp(&sa, &sb, sizeof(double)), 0) << "rank " << i;
    EXPECT_EQ(std::memcmp(&aa, &ab, sizeof(double)), 0) << "rank " << i;
    EXPECT_EQ(a.ToString(), b.ToString()) << "rank " << i;
  }
  EXPECT_EQ(expected.labelings, actual.labelings);
  EXPECT_EQ(expected.partitions, actual.partitions);
  EXPECT_EQ(expected.candidates_evaluated, actual.candidates_evaluated);
  EXPECT_EQ(expected.candidates_deduped, actual.candidates_deduped);
}

TEST(RemoteFaultTest, EngineRunSurvivesWorkerLossBitIdentically) {
  EmployeeGenOptions gen;
  gen.num_rows = 600;
  Table source = GenerateEmployees(gen).ValueOrDie();
  Table target = MakeEmployeeBonusPolicy().Apply(source).ValueOrDie();
  CharlesOptions base;
  base.target_attribute = "bonus";
  base.key_columns = {"emp_id"};
  base.stats_block_rows = 64;
  base.num_threads = 2;
  SummaryList unsharded = SummarizeChanges(source, target, base).ValueOrDie();
  ASSERT_FALSE(unsharded.summaries.empty());

  // Fork the killer only after the baseline run's pool has been joined, so
  // the child is created from a single-threaded process.
  KillerWorker killer = SpawnKillerWorker();
  ASSERT_GT(killer.port, 0);
  std::unique_ptr<LoopbackWorker> survivor = LoopbackWorker::Start().ValueOrDie();

  CharlesOptions sharded_options = base;
  sharded_options.num_shards = 4;
  sharded_options.shard_backend = ShardBackendKind::kRemote;
  sharded_options.remote_workers = {killer.endpoint(), survivor->endpoint()};
  sharded_options.remote_retry_backoff_ms = 1;
  SummaryList sharded =
      SummarizeChanges(source, target, sharded_options).ValueOrDie();
  EXPECT_EQ(sharded.shards_used, 4);
  ExpectIdenticalRuns(unsharded, sharded);

  // The loss is visible in the run's diagnostics: at least one reassignment,
  // and the killer ended the run unhealthy while the survivor carried it.
  EXPECT_GE(sharded.remote_task_retries, 1);
  ASSERT_EQ(sharded.remote_workers.size(), 2u);
  bool killer_seen = false;
  for (const RemoteWorkerCounters& worker : sharded.remote_workers) {
    if (worker.endpoint == killer.endpoint()) {
      killer_seen = true;
      EXPECT_FALSE(worker.healthy);
    } else {
      EXPECT_TRUE(worker.healthy);
      EXPECT_GT(worker.tasks_dispatched, 0);
    }
  }
  EXPECT_TRUE(killer_seen);
  killer.Reap();
}

}  // namespace
}  // namespace charles
