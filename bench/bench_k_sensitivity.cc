/// \file
/// Experiment E9 (§2 partition discovery): sensitivity to the cluster budget
/// k_max. Planting salary policies with 2..6 experience bands, the engine
/// should recover the planted number of partitions whenever k_max admits it,
/// and waste little when k_max exceeds it.
///
/// `--smoke` prints the same table and exits non-zero if any row with
/// k_max >= planted k misses the planted segments (top #CTs != planted k or
/// f1 != 1) — the CI tripwire for partition recovery.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>

#include "bench_util.h"
#include "workload/employee_gen.h"

namespace charles {
namespace bench {
namespace {

/// Prints the E9 table; returns the number of rows with k_max >= planted k
/// that did not recover the planted segments.
int PrintExperiment() {
  PrintHeader("E9: partition-count recovery vs the cluster budget k_max",
              "recovered #CTs equals the planted segment count once k_max >= "
              "planted k");

  EmployeeGenOptions gen;
  gen.num_rows = 2500;
  Table source = GenerateEmployees(gen).ValueOrDie();

  std::vector<int> widths = {10, 7, 9, 8, 9, 9};
  PrintRule(widths);
  PrintTableRow(widths, {"planted k", "k_max", "top #CTs", "f1", "accuracy", "score"});
  PrintRule(widths);
  int missed = 0;
  for (int planted : {2, 3, 4, 5, 6}) {
    Policy policy = MakeSegmentedSalaryPolicy(planted).ValueOrDie();
    Table target = policy.Apply(source).ValueOrDie();
    for (int k_max : {2, 4, 6, 8}) {
      CharlesOptions options = DefaultBenchOptions("salary", "emp_id");
      options.max_clusters = k_max;
      // Bands live on one attribute; allow enough descriptors to express
      // up to 6 of them.
      options.tree_max_depth = 5;
      SummaryList result = SummarizeChanges(source, target, options).ValueOrDie();
      const ChangeSummary& top = result.summaries[0];
      RecoveryOptions recovery_options;
      recovery_options.min_partition_jaccard = 0.85;
      RecoveryReport recovery =
          EvaluateRecovery(policy, top, source, recovery_options).ValueOrDie();
      PrintTableRow(widths, {std::to_string(planted), std::to_string(k_max),
                             std::to_string(top.num_cts()), Fmt(recovery.f1, 3),
                             Fmt(top.scores().accuracy, 3), Fmt(top.scores().score, 3)});
      if (k_max >= planted && (top.num_cts() != planted || recovery.f1 < 1.0)) ++missed;
    }
  }
  PrintRule(widths);
  return missed;
}

void BM_KMaxRun(benchmark::State& state) {
  EmployeeGenOptions gen;
  gen.num_rows = 2500;
  Table source = GenerateEmployees(gen).ValueOrDie();
  Policy policy = MakeSegmentedSalaryPolicy(4).ValueOrDie();
  Table target = policy.Apply(source).ValueOrDie();
  CharlesOptions options = DefaultBenchOptions("salary", "emp_id");
  options.max_clusters = static_cast<int>(state.range(0));
  for (auto _ : state) {
    SummaryList result = SummarizeChanges(source, target, options).ValueOrDie();
    benchmark::DoNotOptimize(result.summaries[0].scores().score);
  }
}
BENCHMARK(BM_KMaxRun)->Arg(2)->Arg(6)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace charles

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const int missed = charles::bench::PrintExperiment();
  if (smoke) {
    if (missed > 0) {
      std::fprintf(stderr, "FAIL: %d row(s) with k_max >= planted k missed the planted "
                           "segments\n", missed);
      return 1;
    }
    std::printf("smoke OK: every row with k_max >= planted k recovered the planted "
                "segments\n");
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
