/// \file
/// Engine-level kernel parity: the determinism contract end to end.
/// kernel_backend=simd vs scalar must produce bit-identical ranked summaries
/// on the employee and billionaires workloads at 1/4 threads and 1/8 shards,
/// for in-process and loopback-remote shard execution — the kernel seam
/// composes with every other determinism layer (threading, sharding,
/// transport) without moving a bit.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "distributed/worker_service.h"
#include "linalg/kernels/kernel.h"
#include "workload/billionaires_gen.h"
#include "workload/employee_gen.h"
#include "workload/policy.h"

namespace charles {
namespace {

/// Byte- and bit-level equality of two ranked runs (the shard-parity
/// comparator: signatures, score/accuracy bits, rendered text, counters).
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
  // Small canonical blocks so 8 shards exist on 600 rows; the kernel works
  // per block, so small blocks also maximize tail-block coverage.
  w.options.stats_block_rows = 64;
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
  return w;
}

/// The scalar-reference baseline: serial, unsharded, kernel_backend=scalar —
/// the cold scalar fold every other configuration must reproduce bit for
/// bit.
SummaryList ScalarBaseline(const Workload& w) {
  CharlesOptions options = w.options;
  options.kernel_backend = "scalar";
  options.num_threads = 1;
  SummaryList baseline = SummarizeChanges(w.source, w.target, options).ValueOrDie();
  EXPECT_EQ(baseline.kernel_used, "scalar");
  return baseline;
}

void RunThreadedKernelParity(const Workload& w) {
  SummaryList baseline = ScalarBaseline(w);
  ASSERT_FALSE(baseline.summaries.empty());
  const std::string simd_name = kernels::SimdKernel().name;
  for (int threads : {1, 4}) {
    for (const char* backend : {"scalar", "simd", "auto"}) {
      CharlesOptions options = w.options;
      options.kernel_backend = backend;
      options.num_threads = threads;
      SummaryList run =
          SummarizeChanges(w.source, w.target, options).ValueOrDie();
      EXPECT_EQ(run.kernel_used,
                std::string(backend) == "scalar" ? "scalar" : simd_name);
      ExpectIdenticalRuns(baseline, run);
    }
  }
}

void RunShardedKernelParity(const Workload& w) {
  SummaryList baseline = ScalarBaseline(w);
  ASSERT_FALSE(baseline.summaries.empty());
  for (int shards : {1, 8}) {
    for (const char* backend : {"scalar", "simd"}) {
      CharlesOptions options = w.options;
      options.kernel_backend = backend;
      options.num_threads = 2;
      options.num_shards = shards;
      options.shard_backend = ShardBackendKind::kInProcess;
      SummaryList run =
          SummarizeChanges(w.source, w.target, options).ValueOrDie();
      EXPECT_EQ(run.shards_used, shards);
      EXPECT_EQ(run.kernel_used,
                std::string(backend) == "scalar" ? "scalar"
                                                 : kernels::SimdKernel().name);
      ExpectIdenticalRuns(baseline, run);
    }
  }
}

TEST(EngineKernelParityTest, EmployeeThreadedBitIdenticalAcrossKernels) {
  RunThreadedKernelParity(MakeEmployeeWorkload());
}

TEST(EngineKernelParityTest, BillionairesThreadedBitIdenticalAcrossKernels) {
  RunThreadedKernelParity(MakeBillionairesWorkload());
}

TEST(EngineKernelParityTest, EmployeeShardedBitIdenticalAcrossKernels) {
  RunShardedKernelParity(MakeEmployeeWorkload());
}

TEST(EngineKernelParityTest, BillionairesShardedBitIdenticalAcrossKernels) {
  RunShardedKernelParity(MakeBillionairesWorkload());
}

// --- Loopback remote: the worker resolves its own kernel --------------------

void RunRemoteKernelParity(const Workload& w) {
  SummaryList baseline = ScalarBaseline(w);
  ASSERT_FALSE(baseline.summaries.empty());
  std::unique_ptr<LoopbackWorker> worker =
      LoopbackWorker::Start(WorkerServiceOptions{}).ValueOrDie();
  for (int shards : {1, 8}) {
    for (const char* backend : {"scalar", "simd"}) {
      CharlesOptions options = w.options;
      options.kernel_backend = backend;
      options.num_threads = 2;
      options.num_shards = shards;
      options.shard_backend = ShardBackendKind::kRemote;
      options.remote_workers = {worker->endpoint()};
      SummaryList run =
          SummarizeChanges(w.source, w.target, options).ValueOrDie();
      EXPECT_EQ(run.shards_used, shards);
      EXPECT_GT(run.remote_tasks_dispatched, 0);
      EXPECT_EQ(run.remote_task_retries, 0);
      // A true remote worker resolves its own kernel (auto), independent of
      // the coordinator's choice — the merge still reproduces the scalar
      // baseline's bits, which is the whole point of the kernel contract.
      ExpectIdenticalRuns(baseline, run);
    }
  }
}

TEST(KernelRemoteParityTest, EmployeeLoopbackBitIdenticalAcrossKernels) {
  RunRemoteKernelParity(MakeEmployeeWorkload());
}

TEST(KernelRemoteParityTest, BillionairesLoopbackBitIdenticalAcrossKernels) {
  RunRemoteKernelParity(MakeBillionairesWorkload());
}

}  // namespace
}  // namespace charles
