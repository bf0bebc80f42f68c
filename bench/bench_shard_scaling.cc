/// \file
/// Experiment D1: distributed shard execution over a shards × threads grid,
/// for both backends (in-process and remote).
///
/// Each cell runs the full engine on the employee workload — phase 3's one
/// kLeafMoments round split into `shards` ranges (0 = one per pool thread)
/// on the cell's backend — and records
/// end-to-end time, the coordinator's own fan-out + merge time, and the rows
/// the backends scanned. Every sharded ranking is checked bit-identical to
/// the unsharded baseline (top signature + bit-equal score) — a speedup that
/// changed the answer is a bug, not a result. The in-process backend shows
/// the shard sweep's parallel scaling; the remote backend prices the full
/// network path — TCP framing, install-once input shipping, per-task round
/// trips — against loopback charles_worker services in this process.
///
/// Results are recorded in BENCH_shards.json (working directory), including
/// the round's coordinator timing, the candidates each run evaluated, the
/// warm-context cells' elision counters, and the remote cells'
/// dispatch/install/retry counters. `--smoke` runs a reduced grid and exits
/// non-zero if any sharded ranking diverges from the baseline (top
/// signature + bit-equal score — the score-parity tripwire), any engine run
/// evaluated no candidate, the sharded end-to-end time blows past a
/// generous overhead ceiling, a warm-context repeat run fails to elide every
/// kLeafMoments task, or a remote cell needed a retry or installed its
/// input more than once per worker (loopback workers never legitimately
/// fail, and a run has one input epoch) — the CI tripwires for the
/// distributed path.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "distributed/worker_service.h"
#include "workload/employee_gen.h"

namespace charles {
namespace bench {
namespace {

/// Loopback charles_worker services behind the remote cells.
constexpr int kLoopbackWorkers = 2;

struct GridRow {
  std::string backend;
  std::string mode = "cold";  ///< "cold", or "warm" (repeat on a warm context)
  int shards = 0;  ///< 0 = one range per pool thread (the baseline)
  int threads = 1;
  double total_s = 0.0;
  double shard_s = 0.0;   ///< coordinator fan-out + merge of the round
  int64_t rows_scanned = 0;
  int64_t candidates = 0;  ///< candidates evaluated (must be > 0)
  int64_t leaves_swept = 0;   ///< kLeafMoments leaves actually requested
  int64_t leaves_elided = 0;  ///< leaves skipped via the warm fit cache
  int64_t remote_tasks = 0;     ///< kRemote: tasks dispatched to the fleet
  int64_t remote_installs = 0;  ///< kRemote: install bundles shipped
  int64_t remote_retries = 0;   ///< kRemote: transport-failure reassignments
  bool identical = true;  ///< ranking bit-identical to the baseline
};

struct Baseline {
  std::string signature;
  double score = 0.0;
  size_t count = 0;
};

GridRow RunCell(const Table& source, const Table& target, int shards,
                ShardBackendKind backend, int threads, int64_t block_rows,
                Baseline* baseline, EngineContext* context = nullptr,
                const char* mode = "cold",
                const std::vector<std::string>* remote_workers = nullptr) {
  CharlesOptions options = DefaultBenchOptions("bonus", "emp_id");
  options.num_threads = threads;
  options.stats_block_rows = block_rows;
  options.num_shards = shards;
  options.shard_backend = backend;
  if (backend == ShardBackendKind::kRemote) {
    CHARLES_CHECK(remote_workers != nullptr && !remote_workers->empty());
    options.remote_workers = *remote_workers;
    options.remote_retry_backoff_ms = 1;  // loopback: fail fast, not slow
  }

  auto start = std::chrono::steady_clock::now();
  SummaryList result =
      context != nullptr
          ? SummarizeChanges(source, target, options, context).ValueOrDie()
          : SummarizeChanges(source, target, options).ValueOrDie();
  GridRow row;
  row.backend =
      backend == ShardBackendKind::kInProcess ? "in-process" : "remote";
  row.mode = mode;
  row.shards = shards;
  row.threads = threads;
  row.total_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  row.shard_s = result.shard_seconds;
  row.rows_scanned = result.shard_rows_scanned;
  row.candidates = result.candidates_evaluated;
  row.leaves_swept = result.shard_moment_leaves_swept;
  row.leaves_elided = result.shard_moment_leaves_elided;
  row.remote_tasks = result.remote_tasks_dispatched;
  row.remote_installs = result.remote_input_installs;
  row.remote_retries = result.remote_task_retries;

  CHARLES_CHECK(!result.summaries.empty());
  if (baseline->count == 0) {
    baseline->signature = result.summaries[0].Signature();
    baseline->score = result.summaries[0].scores().score;
    baseline->count = result.summaries.size();
  } else {
    double score = result.summaries[0].scores().score;
    row.identical = result.summaries[0].Signature() == baseline->signature &&
                    std::memcmp(&score, &baseline->score, sizeof(double)) == 0 &&
                    result.summaries.size() == baseline->count;
  }
  return row;
}

std::vector<GridRow> RunGrid(bool smoke) {
  EmployeeGenOptions gen;
  gen.num_rows = smoke ? 4000 : 20000;
  gen.num_decoy_numeric = 1;
  gen.num_decoy_categorical = 1;
  Table source = GenerateEmployees(gen).ValueOrDie();
  Table target = MakeEmployeeBonusPolicy().Apply(source).ValueOrDie();
  const int64_t block_rows = 256;  // 4k rows = 16 blocks, so 8 shards exist

  // Two loopback charles_worker services in this process back the remote
  // cells — the same topology the CI loopback job runs.
  std::vector<std::unique_ptr<LoopbackWorker>> workers;
  std::vector<std::string> worker_endpoints;
  for (int i = 0; i < kLoopbackWorkers; ++i) {
    workers.push_back(LoopbackWorker::Start().ValueOrDie());
    worker_endpoints.push_back(workers.back()->endpoint());
  }

  std::vector<GridRow> grid;
  Baseline baseline;
  if (smoke) {
    grid.push_back(RunCell(source, target, 0, ShardBackendKind::kInProcess, 2,
                           block_rows, &baseline));
    for (int shards : {2, 8}) {
      grid.push_back(RunCell(source, target, shards, ShardBackendKind::kInProcess,
                             2, block_rows, &baseline));
    }
    // Remote parity cells: the smoke tripwire below asserts bit-identical
    // rankings, dispatched tasks, and zero transport retries.
    for (int shards : {2, 8}) {
      grid.push_back(RunCell(source, target, shards, ShardBackendKind::kRemote,
                             2, block_rows, &baseline, nullptr, "cold",
                             &worker_endpoints));
    }
    // Warm-context pair: the repeat run must serve every fit from the
    // context cache and elide every kLeafMoments task (the smoke tripwire
    // below asserts it).
    {
      EngineContextOptions ctx_options;
      ctx_options.num_threads = 2;
      EngineContext context(ctx_options);
      grid.push_back(RunCell(source, target, 2, ShardBackendKind::kInProcess, 2,
                             block_rows, &baseline, &context, "cold"));
      grid.push_back(RunCell(source, target, 2, ShardBackendKind::kInProcess, 2,
                             block_rows, &baseline, &context, "warm"));
    }
    return grid;
  }
  for (int threads : {1, 4}) {
    Baseline per_thread_baseline;
    grid.push_back(RunCell(source, target, 0, ShardBackendKind::kInProcess, threads,
                           block_rows, &per_thread_baseline));
    for (ShardBackendKind backend :
         {ShardBackendKind::kInProcess, ShardBackendKind::kRemote}) {
      for (int shards : {1, 2, 4, 8}) {
        grid.push_back(RunCell(source, target, shards, backend, threads,
                               block_rows, &per_thread_baseline, nullptr,
                               "cold", &worker_endpoints));
      }
    }
    // Warm-context pair at 4 shards: prices the elision path.
    EngineContextOptions ctx_options;
    ctx_options.num_threads = threads;
    EngineContext context(ctx_options);
    grid.push_back(RunCell(source, target, 4, ShardBackendKind::kInProcess,
                           threads, block_rows, &per_thread_baseline, &context,
                           "cold"));
    grid.push_back(RunCell(source, target, 4, ShardBackendKind::kInProcess,
                           threads, block_rows, &per_thread_baseline, &context,
                           "warm"));
  }
  return grid;
}

void PrintGrid(const std::vector<GridRow>& grid) {
  std::vector<int> widths = {11, 5, 7, 8, 9, 9, 13, 7, 9, 8, 9, 8, 10};
  PrintRule(widths);
  PrintTableRow(widths,
                {"backend", "mode", "shards", "threads", "total s", "shard s",
                 "rows scanned", "elided", "cands", "r tasks", "installs",
                 "retries", "identical"});
  PrintRule(widths);
  for (const GridRow& r : grid) {
    PrintTableRow(widths,
                  {r.backend, r.mode, std::to_string(r.shards),
                   std::to_string(r.threads), Fmt(r.total_s, 3),
                   Fmt(r.shard_s, 4), std::to_string(r.rows_scanned),
                   std::to_string(r.leaves_elided),
                   std::to_string(r.candidates),
                   std::to_string(r.remote_tasks),
                   std::to_string(r.remote_installs),
                   std::to_string(r.remote_retries),
                   r.identical ? "yes" : "NO"});
  }
  PrintRule(widths);
}

void WriteJson(const std::string& path, const std::vector<GridRow>& grid) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"grid\": [\n");
  for (size_t i = 0; i < grid.size(); ++i) {
    const GridRow& r = grid[i];
    std::fprintf(f,
                 "    {\"backend\": \"%s\", \"mode\": \"%s\", \"shards\": %d, "
                 "\"threads\": %d, \"total_s\": %.5f, \"shard_s\": %.5f, "
                 "\"rows_scanned\": %lld, \"leaves_swept\": %lld, "
                 "\"leaves_elided\": %lld, "
                 "\"candidates_evaluated\": %lld, "
                 "\"remote_tasks\": %lld, "
                 "\"remote_installs\": %lld, \"remote_retries\": %lld, "
                 "\"identical\": %s}%s\n",
                 r.backend.c_str(), r.mode.c_str(), r.shards, r.threads,
                 r.total_s, r.shard_s,
                 static_cast<long long>(r.rows_scanned),
                 static_cast<long long>(r.leaves_swept),
                 static_cast<long long>(r.leaves_elided),
                 static_cast<long long>(r.candidates),
                 static_cast<long long>(r.remote_tasks),
                 static_cast<long long>(r.remote_installs),
                 static_cast<long long>(r.remote_retries),
                 r.identical ? "true" : "false", i + 1 < grid.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nrecorded the grid in %s\n", path.c_str());
}

void BM_ShardedEndToEnd(benchmark::State& state) {
  EmployeeGenOptions gen;
  gen.num_rows = 10000;
  Table source = GenerateEmployees(gen).ValueOrDie();
  Table target = MakeEmployeeBonusPolicy().Apply(source).ValueOrDie();
  CharlesOptions options = DefaultBenchOptions("bonus", "emp_id");
  options.num_threads = 4;
  options.stats_block_rows = 256;
  options.num_shards = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SummarizeChanges(source, target, options).ValueOrDie());
  }
}
BENCHMARK(BM_ShardedEndToEnd)->Arg(0)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace charles

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  charles::bench::PrintHeader(
      std::string("D1: distributed shard execution, shards x threads") +
          (smoke ? " (smoke)" : ""),
      "sharded rankings bit-identical to the baseline at every cell");
  std::vector<charles::bench::GridRow> grid = charles::bench::RunGrid(smoke);
  charles::bench::PrintGrid(grid);
  charles::bench::WriteJson("BENCH_shards.json", grid);

  for (const charles::bench::GridRow& row : grid) {
    if (!row.identical) {
      std::fprintf(stderr,
                   "FAIL: %s backend at %d shards diverged from the baseline "
                   "ranking\n",
                   row.backend.c_str(), row.shards);
      return 1;
    }
  }
  if (smoke) {
    // The baseline cell (num_shards = 0) is first; sharded cells may pay
    // coordinator overhead but an end-to-end blowup (> 4x) marks a real
    // regression.
    double baseline_s = grid.front().total_s;
    for (const charles::bench::GridRow& row : grid) {
      if (row.shards > 0 && row.total_s > 4.0 * baseline_s + 0.5) {
        std::fprintf(stderr,
                     "FAIL: %s backend at %d shards took %.3fs vs %.3fs "
                     "at 0 shards (> 4x + 0.5s)\n",
                     row.backend.c_str(), row.shards, row.total_s, baseline_s);
        return 1;
      }
    }
    // Candidate tripwire: every engine run — sharded or not, cold or warm —
    // must build and score candidates; zero means phase 3 produced nothing.
    for (const charles::bench::GridRow& row : grid) {
      if (row.candidates == 0) {
        std::fprintf(stderr,
                     "FAIL: %s backend at %d shards evaluated no candidates\n",
                     row.backend.c_str(), row.shards);
        return 1;
      }
    }
    // Warm-elision tripwire: the warm-context repeat run must issue zero
    // kLeafMoments tasks (every leaf elided via the warm fit cache).
    bool saw_warm = false;
    for (const charles::bench::GridRow& row : grid) {
      if (row.mode != "warm") continue;
      saw_warm = true;
      if (row.leaves_swept != 0 || row.leaves_elided == 0) {
        std::fprintf(stderr,
                     "FAIL: warm-context run swept %lld leaves (elided %lld); "
                     "expected full kLeafMoments elision\n",
                     static_cast<long long>(row.leaves_swept),
                     static_cast<long long>(row.leaves_elided));
        return 1;
      }
    }
    if (!saw_warm) {
      std::fprintf(stderr, "FAIL: smoke grid is missing the warm-context cell\n");
      return 1;
    }
    // Remote-parity tripwire: loopback workers never legitimately fail, so a
    // remote cell with zero dispatches (fleet never used) or any transport
    // retry marks a broken remote path even when the ranking happens to
    // match; a run has one input epoch, so more installs than workers mean
    // the input shipped twice.
    bool saw_remote = false;
    for (const charles::bench::GridRow& row : grid) {
      if (row.backend != "remote") continue;
      saw_remote = true;
      if (row.remote_tasks == 0 || row.remote_retries != 0 ||
          row.remote_installs == 0 ||
          row.remote_installs > charles::bench::kLoopbackWorkers) {
        std::fprintf(stderr,
                     "FAIL: remote cell at %d shards dispatched %lld tasks, "
                     "%lld installs, %lld retries; expected >0 tasks, 1..%d "
                     "installs, 0 retries over loopback\n",
                     row.shards, static_cast<long long>(row.remote_tasks),
                     static_cast<long long>(row.remote_installs),
                     static_cast<long long>(row.remote_retries),
                     charles::bench::kLoopbackWorkers);
        return 1;
      }
    }
    if (!saw_remote) {
      std::fprintf(stderr, "FAIL: smoke grid is missing the remote cells\n");
      return 1;
    }
    std::printf("smoke OK: every sharded cell (including remote loopback) "
                "bit-identical, every run evaluated candidates, overhead "
                "within bounds, warm run elided every "
                "leaf-moments task, zero remote retries, at most one install "
                "per worker\n");
    return 0;
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
