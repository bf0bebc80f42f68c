/// \file
/// Experiment P1 (ROADMAP "fast as the hardware allows"): engine wall-clock
/// versus worker threads on the employee workload. The (C, T) candidate
/// search is embarrassingly parallel, so the shape to reproduce on a
/// multi-core host is near-linear speedup until workers exceed either the
/// physical cores or the number of independent work items, with the phase
/// breakdown showing fitting (phase 3) scaling best — it dominates serial
/// runtime and shards over (partition, T) pairs. Output is checked identical
/// to the 1-thread run at every sweep point (the subsystem's determinism
/// contract).
///
/// P1b adds the serving shape: a long-lived EngineContext whose pool and
/// leaf-fit cache persist across Find() calls. The second (warm) call skips
/// thread spawn and serves every leaf fit from the cross-run cache, so
/// back-to-back queries must beat two cold per-run engines. P1c measures the
/// streaming API's time-to-first-ranked-partial against the full sweep.
///
/// Both sweeps are recorded in BENCH_parallel.json (written to the working
/// directory) for regression tracking.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/engine_context.h"
#include "parallel/thread_pool.h"
#include "workload/employee_gen.h"

namespace charles {
namespace bench {
namespace {

constexpr int64_t kRows = 4000;
const std::vector<int> kThreadSweep = {1, 2, 4, 8};

CharlesOptions ScalingOptions(int threads) {
  return WithThreads(DefaultBenchOptions("bonus", "emp_id"), threads);
}

struct Workload {
  Table source;
  Table target;
};

Workload MakeWorkload() {
  EmployeeGenOptions gen;
  gen.num_rows = kRows;
  gen.num_decoy_numeric = 2;
  gen.num_decoy_categorical = 1;
  Table source = GenerateEmployees(gen).ValueOrDie();
  Table target = MakeEmployeeBonusPolicy().Apply(source).ValueOrDie();
  return Workload{std::move(source), std::move(target)};
}

bool IdenticalRanking(const SummaryList& a, const SummaryList& b) {
  if (a.summaries.size() != b.summaries.size()) return false;
  for (size_t i = 0; i < a.summaries.size(); ++i) {
    if (a.summaries[i].Signature() != b.summaries[i].Signature() ||
        a.summaries[i].scores().score != b.summaries[i].scores().score) {
      return false;
    }
  }
  return true;
}

double WallSeconds(const std::chrono::steady_clock::time_point& since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - since)
      .count();
}

struct ColdRow {
  int threads = 0;
  double total_s = 0, cluster_s = 0, induce_s = 0, fit_s = 0;
  int64_t fits = 0, reuse = 0;
  bool identical = false;
};

struct WarmRow {
  int threads = 0;
  double cold_pair_s = 0;  ///< two fresh per-run engines, back to back
  double ctx_first_s = 0;  ///< context Find #1 (pool reused, cache cold)
  double ctx_second_s = 0; ///< context Find #2 (pool reused, cache warm)
  int64_t warm_fits = 0, warm_reuse = 0;
  bool identical = false;
};

ColdRow MakeColdRow(const SummaryList& result, int threads, double total_s,
                    const SummaryList& serial) {
  ColdRow row;
  row.threads = threads;
  row.total_s = total_s;
  row.cluster_s = result.clustering_seconds;
  row.induce_s = result.induction_seconds;
  row.fit_s = result.fitting_seconds;
  row.fits = result.leaf_fits_computed;
  row.reuse = result.leaf_fits_reused;
  row.identical = serial.summaries.empty() || IdenticalRanking(result, serial);
  return row;
}

ColdRow RunCold(const Workload& workload, int threads, const SummaryList& serial) {
  auto start = std::chrono::steady_clock::now();
  SummaryList result =
      SummarizeChanges(workload.source, workload.target, ScalingOptions(threads))
          .ValueOrDie();
  return MakeColdRow(result, threads, WallSeconds(start), serial);
}

WarmRow RunWarm(const Workload& workload, int threads, double cold_pair_s,
                const SummaryList& serial) {
  WarmRow row;
  row.threads = threads;
  row.cold_pair_s = cold_pair_s;

  EngineContextOptions ctx_options;
  ctx_options.num_threads = threads;
  EngineContext context(ctx_options);
  CharlesEngine engine(ScalingOptions(threads), &context);

  auto first_start = std::chrono::steady_clock::now();
  SummaryList first = engine.Find(workload.source, workload.target).ValueOrDie();
  row.ctx_first_s = WallSeconds(first_start);

  auto second_start = std::chrono::steady_clock::now();
  SummaryList second = engine.Find(workload.source, workload.target).ValueOrDie();
  row.ctx_second_s = WallSeconds(second_start);

  row.warm_fits = second.leaf_fits_computed;
  row.warm_reuse = second.leaf_fits_reused;
  row.identical = IdenticalRanking(first, serial) && IdenticalRanking(second, serial);
  return row;
}

void WriteJson(const std::string& path, const std::vector<ColdRow>& cold,
               const std::vector<WarmRow>& warm, double stream_first_s,
               double stream_total_s) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"rows\": %lld,\n  \"hardware_concurrency\": %d,\n",
               static_cast<long long>(kRows), ThreadPool::HardwareConcurrency());
  std::fprintf(f, "  \"cold_start_sweep\": [\n");
  for (size_t i = 0; i < cold.size(); ++i) {
    const ColdRow& r = cold[i];
    std::fprintf(f,
                 "    {\"threads\": %d, \"total_s\": %.4f, \"cluster_s\": %.4f, "
                 "\"induce_s\": %.4f, \"fit_s\": %.4f, \"fits\": %lld, "
                 "\"fit_reuse\": %lld, \"identical\": %s}%s\n",
                 r.threads, r.total_s, r.cluster_s, r.induce_s, r.fit_s,
                 static_cast<long long>(r.fits), static_cast<long long>(r.reuse),
                 r.identical ? "true" : "false", i + 1 < cold.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"warm_context_sweep\": [\n");
  for (size_t i = 0; i < warm.size(); ++i) {
    const WarmRow& r = warm[i];
    std::fprintf(f,
                 "    {\"threads\": %d, \"cold_pair_s\": %.4f, "
                 "\"ctx_first_s\": %.4f, \"ctx_second_s\": %.4f, "
                 "\"ctx_pair_s\": %.4f, \"warm_fits\": %lld, "
                 "\"warm_fit_reuse\": %lld, \"identical\": %s}%s\n",
                 r.threads, r.cold_pair_s, r.ctx_first_s, r.ctx_second_s,
                 r.ctx_first_s + r.ctx_second_s, static_cast<long long>(r.warm_fits),
                 static_cast<long long>(r.warm_reuse), r.identical ? "true" : "false",
                 i + 1 < warm.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"streaming\": {\"first_partial_s\": %.4f, "
               "\"total_s\": %.4f}\n}\n",
               stream_first_s, stream_total_s);
  std::fclose(f);
  std::printf("\nrecorded both sweeps in %s\n", path.c_str());
}

void PrintExperiment() {
  PrintHeader(
      "P1: wall-clock vs worker threads (" + std::to_string(kRows) + "-row employees)",
      "parallel (C, T) search: >= 2x at 4 threads on >= 4 cores, identical output");
  std::printf("hardware concurrency: %d\n\n", ThreadPool::HardwareConcurrency());

  Workload workload = MakeWorkload();

  // --- Cold-start sweep: a fresh per-run engine per call. -----------------
  std::vector<int> widths = {7, 9, 9, 10, 10, 10, 10, 11, 9};
  PrintRule(widths);
  PrintTableRow(widths, {"threads", "total s", "speedup", "cluster s", "induce s",
                         "fit s", "fits", "fit reuse", "identical"});
  PrintRule(widths);

  SummaryList serial;
  std::vector<ColdRow> cold_rows;
  for (int threads : kThreadSweep) {
    ColdRow row;
    if (threads == 1) {
      // The 1-thread run doubles as the determinism baseline for every
      // other sweep point; time it directly instead of running it twice.
      auto start = std::chrono::steady_clock::now();
      serial = SummarizeChanges(workload.source, workload.target, ScalingOptions(1))
                   .ValueOrDie();
      row = MakeColdRow(serial, 1, WallSeconds(start), serial);
    } else {
      row = RunCold(workload, threads, serial);
    }
    cold_rows.push_back(row);
    PrintTableRow(widths,
                  {std::to_string(threads), Fmt(row.total_s, 2),
                   Fmt(cold_rows.front().total_s / row.total_s, 2) + "x",
                   Fmt(row.cluster_s, 2), Fmt(row.induce_s, 2), Fmt(row.fit_s, 2),
                   std::to_string(row.fits), std::to_string(row.reuse),
                   row.identical ? "yes" : "NO"});
  }
  PrintRule(widths);

  // --- Warm-context sweep: one EngineContext, two back-to-back Find(). ----
  PrintHeader("P1b: warm EngineContext vs cold per-run engines (back-to-back Find)",
              "pool reuse + cross-run leaf-fit cache: warm pair beats cold pair");
  std::vector<int> wwidths = {7, 12, 12, 12, 11, 10, 11, 9};
  PrintRule(wwidths);
  PrintTableRow(wwidths, {"threads", "cold pair s", "ctx pair s", "warm find s",
                          "pair gain", "warm fits", "warm reuse", "identical"});
  PrintRule(wwidths);

  std::vector<WarmRow> warm_rows;
  for (size_t i = 0; i < kThreadSweep.size(); ++i) {
    int threads = kThreadSweep[i];
    // Back-to-back cold per-run engines: the sweep above timed one; run the
    // second so both pairs do identical work.
    double cold_pair_s = cold_rows[i].total_s + RunCold(workload, threads, serial).total_s;
    WarmRow row = RunWarm(workload, threads, cold_pair_s, serial);
    warm_rows.push_back(row);
    double ctx_pair_s = row.ctx_first_s + row.ctx_second_s;
    PrintTableRow(wwidths,
                  {std::to_string(threads), Fmt(row.cold_pair_s, 2),
                   Fmt(ctx_pair_s, 2), Fmt(row.ctx_second_s, 2),
                   Fmt(row.cold_pair_s / ctx_pair_s, 2) + "x",
                   std::to_string(row.warm_fits), std::to_string(row.warm_reuse),
                   row.identical ? "yes" : "NO"});
  }
  PrintRule(wwidths);

  // --- Streaming: time to first ranked partial vs full sweep. -------------
  PrintHeader("P1c: streaming time-to-first-partial (FindAsync + SummaryStream)",
              "interactive search: first ranked partial long before the sweep ends");
  {
    EngineContextOptions ctx_options;
    ctx_options.num_threads = 4;
    EngineContext context(ctx_options);
    CharlesEngine engine(ScalingOptions(4), &context);
    auto start = std::chrono::steady_clock::now();
    double first_partial_s = -1.0;
    std::atomic<int64_t> shards_total{0};
    SummaryStream stream([&](const SummaryStreamUpdate& update) {
      if (first_partial_s < 0) first_partial_s = WallSeconds(start);
      shards_total = update.shards_total;
    });
    SummaryList streamed =
        engine.FindAsync(workload.source, workload.target, &stream).get().ValueOrDie();
    double total_s = WallSeconds(start);
    std::printf("first partial after %.3fs, full sweep %.3fs (%lld shards, "
                "%lld ranked updates), final identical to serial: %s\n",
                first_partial_s, total_s, static_cast<long long>(shards_total.load()),
                static_cast<long long>(stream.updates_emitted()),
                IdenticalRanking(streamed, serial) ? "yes" : "NO");
    WriteJson("BENCH_parallel.json", cold_rows, warm_rows, first_partial_s, total_s);
  }
}

void BM_EndToEndThreads(benchmark::State& state) {
  Workload workload = MakeWorkload();
  CharlesOptions options = ScalingOptions(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    SummaryList result =
        SummarizeChanges(workload.source, workload.target, options).ValueOrDie();
    benchmark::DoNotOptimize(result);
    state.counters["candidates"] = static_cast<double>(result.candidates_evaluated);
    state.counters["fit_s"] = result.fitting_seconds;
  }
}
BENCHMARK(BM_EndToEndThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

/// Warm-context serving shape: one Find per iteration against a persistent
/// context, so iteration 2+ report the steady-state (cache-warm) latency.
void BM_WarmContextFind(benchmark::State& state) {
  Workload workload = MakeWorkload();
  EngineContextOptions ctx_options;
  ctx_options.num_threads = static_cast<int>(state.range(0));
  EngineContext context(ctx_options);
  CharlesEngine engine(ScalingOptions(ctx_options.num_threads), &context);
  for (auto _ : state) {
    SummaryList result = engine.Find(workload.source, workload.target).ValueOrDie();
    benchmark::DoNotOptimize(result);
    state.counters["warm_fits"] = static_cast<double>(result.leaf_fits_computed);
  }
}
BENCHMARK(BM_WarmContextFind)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

}  // namespace
}  // namespace bench
}  // namespace charles

int main(int argc, char** argv) {
  charles::bench::PrintExperiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
