/// \file
/// \brief The repository benchmark: two workloads against the public
/// engine API, end-to-end metrics from plain calls and per-layer metrics
/// from a traced run that drives the pipeline stages by hand.
///
/// Usage:
///   charles_repo_bench --workload cold_csv|explore_tradeoff
///                      --seed N --seconds S --trace 0|1 [--commit SHA]
///
/// Every workload is a closed loop of one client (it sends its next request
/// only after the previous reply). Inputs come from the engine's workload
/// generators, seeded only with values derived from --seed. Every timed
/// request is checked against a reference ranking computed before timing
/// with no EngineContext. The last line of standard output is one JSON
/// object: {"correct", "attempted", "failed", "metrics"}. See README.md in
/// this directory for the workloads, the metric catalogue, and how the
/// traced run attributes time to layers.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/charles.h"
#include "core/run_pipeline.h"
#include "linalg/suffstats.h"
#include "ml/decision_tree.h"
#include "workload/employee_gen.h"
#include "workload/montgomery_gen.h"
#include "workload/policy.h"

#ifndef CHARLES_BENCH_BUILD_TYPE
#define CHARLES_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef CHARLES_BENCH_COMPILER
#define CHARLES_BENCH_COMPILER "unknown"
#endif

namespace charles {
namespace repobench {
namespace {

using Clock = std::chrono::steady_clock;

/// Attribution tolerance of the traced run: each search phase, timed from
/// outside on the traced requests, must agree with the engine's own timing
/// of that phase on the untraced requests interleaved with them within this
/// share (the latency bound of BENCHMARK.json). See README.md for the gaps
/// the benchmark's own runs show.
constexpr double kAttributionTolerance = 0.25;

/// An untraced run times at least this many whole cycles, so that every
/// request kind is timed at least this often.
constexpr int64_t kMinCycles = 3;

/// Set-up is repeated for at least this long (and at least three times):
/// a short set-up, like cold_csv's input loading, varies by tens of percent
/// from one repetition to the next.
constexpr double kSetupSeconds = 2.0;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- Small helpers -----------------------------------------------------------

/// splitmix64: every generator seed is derived from (--seed, tag), so the
/// same --seed always yields the same inputs and the engine never sees the
/// raw argument.
uint64_t DeriveSeed(uint64_t seed, uint64_t tag) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (tag + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(const std::vector<double>& values) { return Quantile(values, 0.5); }

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// CPUs this process may run on (what `nproc` prints).
int UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return count;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "charles_repo_bench: %s\n", message.c_str());
  std::exit(2);
}

template <typename T>
T Unwrap(Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(result).ValueOrDie();
}

// --- Metric sink ----------------------------------------------------------------

/// Named metrics in insertion order, printed as a table and as the final
/// JSON object.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    for (Entry& e : entries_) {
      if (e.name == name) {
        e.value = value;
        e.unit = unit;
        return;
      }
    }
    entries_.push_back(Entry{name, value, unit});
  }

  void PrintTable(const char* title) const {
    std::printf("%s\n", title);
    for (const Entry& e : entries_) {
      std::printf("  %-42s %16.6f %s\n", e.name.c_str(), e.value, e.unit.c_str());
    }
  }

  std::string Json() const {
    std::string out = "{";
    char buf[512];
    for (size_t i = 0; i < entries_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", entries_[i].name.c_str(),
                    std::isfinite(entries_[i].value) ? entries_[i].value : 0.0,
                    entries_[i].unit.c_str());
      out += buf;
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

// --- Reference rankings and checks ----------------------------------------------

/// The parts of a ranking every request is checked on: top-N signatures,
/// score bits, and the count.
struct Ranking {
  std::vector<std::string> signatures;
  std::vector<double> scores;

  static Ranking Of(const SummaryList& list) {
    Ranking r;
    for (const ChangeSummary& s : list.summaries) {
      r.signatures.push_back(s.Signature());
      r.scores.push_back(s.scores().score);
    }
    return r;
  }
};

bool SameRanking(const SummaryList& got, const Ranking& want) {
  if (got.summaries.size() != want.signatures.size()) return false;
  for (size_t i = 0; i < got.summaries.size(); ++i) {
    const double score = got.summaries[i].scores().score;
    if (std::memcmp(&score, &want.scores[i], sizeof(double)) != 0) return false;
    if (got.summaries[i].Signature() != want.signatures[i]) return false;
  }
  return true;
}

/// The counters that depend only on the inputs and options, never on thread
/// scheduling (work.* minus the fit and fold counts).
struct DeterministicCounts {
  int64_t condition_subsets = 0;
  int64_t transform_subsets = 0;
  int64_t labelings = 0;
  int64_t partitions = 0;
  int64_t work_items = 0;
  int64_t candidates_evaluated = 0;
  int64_t candidates_deduped = 0;

  static DeterministicCounts Of(const SummaryList& list) {
    DeterministicCounts c;
    c.condition_subsets = list.condition_subsets;
    c.transform_subsets = list.transform_subsets;
    c.labelings = list.labelings;
    c.partitions = list.partitions;
    c.work_items = list.partitions * list.transform_subsets;
    c.candidates_evaluated = list.candidates_evaluated;
    c.candidates_deduped = list.candidates_deduped;
    return c;
  }
  bool operator==(const DeterministicCounts& o) const {
    return condition_subsets == o.condition_subsets &&
           transform_subsets == o.transform_subsets && labelings == o.labelings &&
           partitions == o.partitions && work_items == o.work_items &&
           candidates_evaluated == o.candidates_evaluated &&
           candidates_deduped == o.candidates_deduped;
  }
};

// --- Workload description -------------------------------------------------------

/// One distinct (snapshot pair, options) a workload issues.
struct RequestKind {
  std::string label;
  /// The snapshots; for CSV requests, the parsed-and-unified CSV text (what
  /// the reference ran on), while each request parses the text itself.
  const Table* source = nullptr;
  const Table* target = nullptr;
  std::string source_csv;  ///< empty for requests that take tables
  std::string target_csv;
  CharlesOptions options;
  bool with_stream = false;
  Ranking reference;
  DeterministicCounts reference_counts;
  ChangeSummary reference_top;
};

/// Everything one workload needs to run; built by the workload's Prepare().
/// One client sends the kinds in order, cycle after cycle.
struct Workload {
  std::string name;
  int pool_threads = 1;
  /// Owned snapshots; RequestKind points into these.
  std::vector<Table> tables;
  std::vector<RequestKind> kinds;
  /// The fold kernel the reference runs used.
  std::string kernel_used;
  /// Builds a fresh context and runs the warm-fill queries; null result for
  /// workloads without a context.
  std::function<std::unique_ptr<EngineContext>()> set_up;
  /// Untimed queries after set-up that bring the context to steady state.
  std::function<void(EngineContext*)> warm_up;
  /// Set-up of the context-free workload: loading its inputs.
  std::function<void()> load_inputs;
  /// (kind index, weight) of the inputs the serial pass covers; weights are
  /// the kinds' shares of the request mix.
  std::vector<std::pair<int, double>> representative;
  /// Planted policy and the kinds whose reference (at alpha = 0.5) must
  /// recover it.
  Policy truth;
  std::vector<int> recall_kinds;
};

// --- Request execution ------------------------------------------------------------

/// Outside timings of one hand-driven request.
struct StageTimes {
  double csv_read = 0.0;
  double unify = 0.0;
  double admit_wait = 0.0;
  /// Freeing the run state and joining the stream's drain thread.
  double teardown = 0.0;
  double stage[6] = {0, 0, 0, 0, 0, 0};
  double StageSum() const {
    double s = 0.0;
    for (double v : stage) s += v;
    return s;
  }
};

/// One completed request.
struct Sample {
  int kind = 0;
  bool traced = false;
  double latency = 0.0;
  double first_update = 0.0;
  bool ok = false;
  /// Engine-reported phase times (untraced requests).
  double clustering = 0.0;
  double induction = 0.0;
  double fitting = 0.0;
  /// Scheduling-dependent counters of the run.
  int64_t leaf_fits_computed = 0;
  int64_t leaf_fits_reused = 0;
  int64_t score_leaf_folds = 0;
  StageTimes times;  ///< traced requests only
};

/// Binds a hand-driven RunState to execution resources the way
/// RunPipeline::Run does: the context's pool and an admission slot, or a
/// per-run pool. `serial` forces a pool-less run (the serial pass).
Status BindResources(RunState& state, bool serial, double* admit_wait) {
  CHARLES_RETURN_NOT_OK(state.options.Validate());
  if (state.context != nullptr) {
    const Clock::time_point start = Clock::now();
    Result<EngineContext::RunSlot> slot = state.context->AdmitRun(nullptr);
    if (admit_wait != nullptr) *admit_wait = SecondsSince(start);
    if (!slot.ok()) return slot.status();
    state.run_slot = std::move(*slot);
    state.num_threads = state.context->num_threads();
    state.pool = state.context->pool();
  } else {
    state.num_threads = state.options.num_threads > 0
                            ? state.options.num_threads
                            : ThreadPool::HardwareConcurrency();
    if (state.num_threads > 1) {
      state.owned_pool = std::make_unique<ThreadPool>(state.num_threads);
      state.pool = state.owned_pool.get();
    }
  }
  if (serial) {
    state.pool = nullptr;
    state.num_threads = 1;
  }
  state.result.threads_used = state.pool != nullptr ? state.num_threads : 1;
  return Status::OK();
}

/// Runs the six public stages in pipeline order, timing each from outside.
Status DriveStages(RunState& state, double* stage_seconds) {
  size_t count = 0;
  const RunPipeline::StageSpec* stages = RunPipeline::Stages(&count);
  if (count != 6) Die("the pipeline has " + std::to_string(count) + " stages, not 6");
  for (size_t s = 0; s < count; ++s) {
    const Clock::time_point start = Clock::now();
    Status status = stages[s].fn(state);
    if (stage_seconds != nullptr) stage_seconds[s] = SecondsSince(start);
    if (!status.ok()) return status;
  }
  return Status::OK();
}

/// Parses the workload's CSV text the way the one-shot CLI does.
Result<std::pair<Table, Table>> Ingest(const RequestKind& kind, StageTimes* times) {
  Clock::time_point start = Clock::now();
  CHARLES_ASSIGN_OR_RETURN(Table source, CsvReader::ReadString(kind.source_csv));
  CHARLES_ASSIGN_OR_RETURN(Table target, CsvReader::ReadString(kind.target_csv));
  if (times != nullptr) times->csv_read = SecondsSince(start);
  start = Clock::now();
  Result<std::pair<Table, Table>> unified = UnifyNumericTypes(source, target);
  if (times != nullptr) times->unify = SecondsSince(start);
  return unified;
}

/// One request through the public API (untraced) or driven stage by stage
/// (traced). Latency runs from the call (from the CSV text, for cold_csv)
/// to the returned ranking.
Sample Execute(const RequestKind& kind, EngineContext* context, bool traced) {
  Sample sample;
  sample.traced = traced;
  std::atomic<bool> seen_update{false};
  std::atomic<int64_t> first_update_ns{0};
  const Clock::time_point start = Clock::now();
  std::unique_ptr<SummaryStream> stream;
  if (kind.with_stream) {
    stream = std::make_unique<SummaryStream>([&](const SummaryStreamUpdate&) {
      if (!seen_update.exchange(true)) {
        first_update_ns.store(
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start)
                .count());
      }
    });
  }

  std::pair<Table, Table> parsed;
  const Table* source = kind.source;
  const Table* target = kind.target;
  if (!kind.source_csv.empty()) {
    Result<std::pair<Table, Table>> ingested =
        Ingest(kind, traced ? &sample.times : nullptr);
    if (!ingested.ok()) return sample;
    parsed = std::move(*ingested);
    source = &parsed.first;
    target = &parsed.second;
  }

  CharlesEngine engine(kind.options, context);
  Result<SummaryList> result = Status::Internal("not run");
  if (!traced) {
    result = engine.Find(*source, *target, stream.get());
  } else {
    auto state =
        std::make_unique<RunState>(engine, *source, *target, stream.get(), nullptr);
    Status status = BindResources(*state, /*serial=*/false, &sample.times.admit_wait);
    if (status.ok()) status = DriveStages(*state, sample.times.stage);
    if (status.ok()) {
      result = std::move(state->result);
    } else {
      result = status;
    }
    const Clock::time_point teardown = Clock::now();
    state.reset();
    stream.reset();
    sample.times.teardown = SecondsSince(teardown);
  }
  stream.reset();  // delivers every queued update, joins the drain thread
  sample.latency = SecondsSince(start);
  sample.first_update = seen_update.load()
                            ? static_cast<double>(first_update_ns.load()) * 1e-9
                            : sample.latency;
  if (!result.ok()) return sample;
  sample.ok = SameRanking(*result, kind.reference);
  sample.clustering = result->clustering_seconds;
  sample.induction = result->induction_seconds;
  sample.fitting = result->fitting_seconds;
  sample.leaf_fits_computed = result->leaf_fits_computed;
  sample.leaf_fits_reused = result->leaf_fits_reused;
  sample.score_leaf_folds = result->score_leaf_folds;
  return sample;
}

/// Result of one closed loop.
struct LoopResult {
  std::vector<Sample> samples;
  double wall = 0.0;
  int64_t cycles = 0;
  int64_t failed = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_entries = 0;
};

/// Closed loop of one client: it sends the workload's kinds in order, each
/// request only after the previous reply, for whole cycles, at least
/// `min_cycles`, and stops at the cycle boundary nearest `seconds`
/// (overshooting by at most half a cycle). So every kind is timed equally
/// often. A `trace_run` runs each request both untraced and traced
/// (driven stage by stage), back to back, so that the two share inputs and
/// host speed.
LoopResult RunLoop(const Workload& w, EngineContext* context, double seconds,
                   bool trace_run, int64_t min_cycles) {
  LoopResult loop;
  if (context != nullptr) {
    loop.cache_hits = -context->leaf_cache_hits();
    loop.cache_misses = -context->leaf_cache_misses();
  }
  const Clock::time_point start = Clock::now();
  for (;;) {
    const double elapsed = SecondsSince(start);
    if (loop.cycles >= min_cycles) {
      const double cycle = elapsed / static_cast<double>(loop.cycles);
      if (elapsed + cycle / 2 >= seconds) break;
    }
    for (size_t k = 0; k < w.kinds.size(); ++k) {
      const RequestKind& request = w.kinds[k];
      // The order alternates, so that neither kind of request always runs
      // second, on warmer CPU caches.
      const bool traced_first = trace_run && (loop.samples.size() / 2) % 2 == 1;
      loop.samples.push_back(Execute(request, context, traced_first));
      loop.samples.back().kind = static_cast<int>(k);
      if (trace_run) {
        loop.samples.push_back(Execute(request, context, !traced_first));
        loop.samples.back().kind = static_cast<int>(k);
      }
    }
    ++loop.cycles;
  }
  loop.wall = SecondsSince(start);
  for (const Sample& s : loop.samples) {
    if (!s.ok) ++loop.failed;
  }
  if (context != nullptr) {
    loop.cache_hits += context->leaf_cache_hits();
    loop.cache_misses += context->leaf_cache_misses();
    loop.cache_entries = static_cast<int64_t>(context->leaf_cache_entries());
  }
  return loop;
}

// --- Workloads ------------------------------------------------------------------

/// The reference ranking of one request kind: a no-context run on all
/// usable CPUs (output is bit-identical at any thread count).
void ComputeReference(Workload& w, RequestKind& kind, int nproc) {
  CharlesOptions options = kind.options;
  options.num_threads = nproc;
  SummaryList list = Unwrap(SummarizeChanges(*kind.source, *kind.target, options),
                            ("reference run " + kind.label).c_str());
  if (list.summaries.empty()) Die("reference run " + kind.label + " ranked nothing");
  kind.reference = Ranking::Of(list);
  kind.reference_counts = DeterministicCounts::Of(list);
  kind.reference_top = list.summaries[0];
  if (w.kernel_used.empty()) w.kernel_used = list.kernel_used;
}

/// rule_recall of the kind's reference top summary against the planted
/// policy (EvaluateRecovery, which also scores the implicit "everything else
/// unchanged" group). On some inputs the top summary writes one planted
/// group as several CTs with the same transformation and finer conditions
/// (e.g. `exp < 1` and `1 <= exp < 3` for `exp < 3`). Every row still gets
/// the planted update, so recovery is evaluated on the summary with such CTs
/// merged; `split` receives how many were merged.
double RuleRecall(const Workload& w, const RequestKind& kind, size_t* split) {
  ChangeSummary merged = kind.reference_top;
  std::vector<ConditionalTransform>& cts = *merged.mutable_cts();
  std::vector<ConditionalTransform> by_transform;
  for (const ConditionalTransform& ct : cts) {
    auto same = std::find_if(by_transform.begin(), by_transform.end(),
                             [&](const ConditionalTransform& m) {
                               return m.transform.ToString() == ct.transform.ToString();
                             });
    if (same == by_transform.end()) {
      by_transform.push_back(ct);
    } else {
      same->rows = same->rows.Union(ct.rows);
    }
  }
  *split = cts.size() - by_transform.size();
  cts = std::move(by_transform);
  return Unwrap(EvaluateRecovery(w.truth, merged, *kind.source), "EvaluateRecovery")
      .rule_recall;
}

/// The recovery gate: at alpha = 0.5 the reference's top summary must
/// recover the planted policy (rule_recall = 1).
bool CheckRecall(const Workload& w) {
  bool all = true;
  for (int k : w.recall_kinds) {
    const RequestKind& kind = w.kinds[static_cast<size_t>(k)];
    size_t split = 0;
    const double recall = RuleRecall(w, kind, &split);
    const bool ok = recall == 1.0;
    std::printf("recall %-28s rule_recall=%.3f (%s)", kind.label.c_str(), recall,
                ok ? "ok" : "FAILED");
    if (split > 0) std::printf(", %zu CTs merged into same-transform groups", split);
    std::printf("\n");
    if (!ok) {
      std::printf("%s\n", kind.reference_top.ToString().c_str());
      all = false;
    }
  }
  return all;
}

CharlesOptions BaseOptions(const std::string& target, const std::string& key,
                           int threads) {
  CharlesOptions options;
  options.target_attribute = target;
  options.key_columns = {key};
  options.num_threads = threads;
  return options;
}

/// cold_csv: the one-shot CLI path on 10k employee rows, no context. A run
/// rotates over several generated snapshot pairs: how much work a pair
/// takes (k-means iterations, leaf fits) varies by generator seed far more
/// than one run's requests vary, so one pair per run would make the median
/// mostly a property of the seed.
///
/// At 10k rows, about one generated pair in a hundred is ambiguous: the
/// planted `edu = 'MS' AND exp < 3` group holds a few percent of the rows,
/// and the top summary splits it at `exp < 2` instead (accuracy 0.99), so
/// EvaluateRecovery reads 0.75. Such a pair is replaced by the next
/// one, at most kMaxSkipped times; beyond that the pair is kept and the
/// recovery gate fails the run, as it would if the engine stopped
/// recovering the policy.
void PrepareColdCsv(Workload& w, uint64_t seed, int nproc) {
  constexpr size_t kPairs = 8;
  constexpr int kMaxSkipped = 3;
  constexpr int kRows = 10000;
  w.pool_threads = std::max(1, nproc - 1);
  w.truth = MakeEmployeeBonusPolicy();
  // Kinds point into w.tables: no reallocation while pairs are added.
  w.tables.reserve(2 * kPairs + 2);
  int skipped = 0;
  for (uint64_t tag = 1; w.kinds.size() < kPairs; ++tag) {
    RequestKind kind;
    EmployeeGenOptions gen;
    gen.num_rows = kRows;
    gen.num_decoy_numeric = 1;
    gen.num_decoy_categorical = 1;
    gen.seed = DeriveSeed(seed, tag);
    Table source = Unwrap(GenerateEmployees(gen), "GenerateEmployees");
    Table target = Unwrap(w.truth.Apply(source), "policy apply");
    kind.source_csv = CsvWriter::WriteString(source);
    kind.target_csv = CsvWriter::WriteString(target);
    std::pair<Table, Table> parsed = Unwrap(Ingest(kind, nullptr), "CSV ingest");
    w.tables.push_back(std::move(parsed.first));
    w.tables.push_back(std::move(parsed.second));
    kind.label = "employee" + std::to_string(kRows / 1000) + "k_csv" +
                 std::to_string(w.kinds.size());
    kind.source = &w.tables[w.tables.size() - 2];
    kind.target = &w.tables[w.tables.size() - 1];
    kind.options = BaseOptions("bonus", "emp_id", w.pool_threads);
    ComputeReference(w, kind, nproc);
    size_t split = 0;
    if (RuleRecall(w, kind, &split) != 1.0 && skipped < kMaxSkipped) {
      ++skipped;
      w.tables.pop_back();
      w.tables.pop_back();
      continue;
    }
    w.recall_kinds.push_back(static_cast<int>(w.kinds.size()));
    w.kinds.push_back(std::move(kind));
  }
  std::printf("cold_csv: %d generated pairs replaced (planted policy not recovered)\n",
              skipped);
  // A one-shot call keeps no state, so this workload's set-up is loading its
  // inputs with the engine's CSV reader: the code each request runs first,
  // here over every pair.
  w.load_inputs = [&w]() {
    for (const RequestKind& kind : w.kinds) Unwrap(Ingest(kind, nullptr), "CSV ingest");
  };
  w.representative = {{0, 1.0}};
}

/// explore_tradeoff: the Montgomery demo dataset re-queried over a fixed
/// 9-step (alpha, c) cycle on one warm context, each request streamed.
void PrepareExplore(Workload& w, uint64_t seed, int nproc) {
  w.pool_threads = std::max(1, nproc - 1);
  w.truth = MakeMontgomeryPayPolicy();
  MontgomeryGenOptions gen;
  // A third of the demo's 9k rows, so that a run times every step several
  // times within the benchmark's time budget (see README.md).
  gen.num_rows = 3000;
  gen.seed = DeriveSeed(seed, 2);
  w.tables.reserve(2);
  w.tables.push_back(Unwrap(GenerateMontgomery2016(gen), "GenerateMontgomery2016"));
  w.tables.push_back(Unwrap(GenerateMontgomery2017(w.tables[0]), "GenerateMontgomery2017"));
  // Each c takes about the same time at every alpha, and a smaller c is
  // faster. With three values of c, the median request is a c = 2 request,
  // inside a group; with an even number of groups the median would fall in
  // the gap between two of them (see README.md).
  const double alphas[] = {0.2, 0.5, 0.8};
  const int cs[] = {3, 2, 1};
  std::vector<int> first_of_c;
  for (double alpha : alphas) {
    for (int c : cs) {
      RequestKind kind;
      char label[64];
      std::snprintf(label, sizeof(label), "montgomery_a%.2f_c%d", alpha, c);
      kind.label = label;
      kind.source = &w.tables[0];
      kind.target = &w.tables[1];
      kind.options = BaseOptions("base_salary", "employee_id", w.pool_threads);
      kind.options.alpha = alpha;
      kind.options.max_condition_attrs = c;
      kind.with_stream = true;
      if (alpha == 0.5) {
        // A single condition attribute cannot express the pay policy, so
        // only c = 3 and c = 2 are held to recovering it.
        if (c > 1) w.recall_kinds.push_back(static_cast<int>(w.kinds.size()));
        w.representative.push_back({static_cast<int>(w.kinds.size()), 1.0 / 3});
      }
      if (alpha == alphas[0]) first_of_c.push_back(static_cast<int>(w.kinds.size()));
      w.kinds.push_back(std::move(kind));
    }
  }
  const int pool = w.pool_threads;
  const RequestKind* fill = &w.kinds[static_cast<size_t>(w.recall_kinds[0])];
  w.set_up = [pool, fill]() {
    EngineContextOptions ctx;
    ctx.num_threads = pool;
    auto context = std::make_unique<EngineContext>(ctx);
    Unwrap(SummarizeChanges(*fill->source, *fill->target, fill->options, context.get()),
           "warm-fill query");
    return context;
  };
  // The c = 2 and c = 1 steps induce other capped partition sets than the
  // fill (c = 3), so the first of each would insert fits once: a one-off
  // cold request in the timed loop. One untimed query per c after set-up
  // makes every timed cycle the steady state.
  w.warm_up = [&w, first_of_c](EngineContext* context) {
    for (int k : first_of_c) {
      const RequestKind& kind = w.kinds[static_cast<size_t>(k)];
      Unwrap(SummarizeChanges(*kind.source, *kind.target, kind.options, context),
             "warm-up query");
    }
  };
}

// --- The serial pass (traced run) -------------------------------------------------

/// Per-layer numbers from one serial, hand-driven request: deterministic
/// counters plus serial timings of single layer functions.
struct SerialProbe {
  DeterministicCounts counts;
  double cluster_residuals_s = 0.0;  ///< mean per T-subset
  double induce_candidates_s = 0.0;  ///< mean per C-subset
  double shortlist_fold_s = 0.0;
  double lookup_ns = 0.0;  ///< mean SharedLeafFitCache::Lookup
  double key_rows = 0.0;   ///< mean rows per probed key
  bool reproduced = false;
  bool counts_match = false;
};

SerialProbe RunSerialProbe(const RequestKind& kind, EngineContext* context) {
  SerialProbe probe;
  const Table& source = *kind.source;
  const Table& target = *kind.target;
  CharlesOptions options = kind.options;
  options.num_threads = 1;
  CharlesEngine engine(options, context);
  RunState state(engine, source, target, nullptr, nullptr);
  Status status = BindResources(state, /*serial=*/true, nullptr);
  if (status.ok()) status = DriveStages(state, nullptr);
  if (!status.ok()) Die("serial pass " + kind.label + ": " + status.ToString());
  state.run_slot.Release();
  probe.reproduced = SameRanking(state.result, kind.reference);
  probe.counts = DeterministicCounts::Of(state.result);
  probe.counts.work_items = state.work_items;
  probe.counts_match = probe.counts == kind.reference_counts;

  // PartitionFinder::ClusterResiduals, once per T-subset, as phase 1 calls it.
  {
    double total = 0.0;
    for (size_t ti = 0; ti < state.t_subsets.size(); ++ti) {
      PartitionFinder::Input input;
      input.source = state.analysis;
      input.y_old = &state.y_old;
      input.y_new = &state.y_new;
      input.column_cache = &state.tran_columns;
      input.shortlist_stats = state.shortlist_stats.get();
      input.shortlist_subset = state.t_subsets[ti];
      for (int t : state.t_subsets[ti]) {
        input.transform_attrs.push_back(state.tran_names[static_cast<size_t>(t)]);
      }
      const Clock::time_point start = Clock::now();
      Result<PartitionFinder::ResidualClusterings> clusterings =
          PartitionFinder::ClusterResiduals(input, options, ti == 0);
      total += SecondsSince(start);
      if (!clusterings.ok()) Die("ClusterResiduals: " + clusterings.status().ToString());
    }
    probe.cluster_residuals_s = total / static_cast<double>(state.t_subsets.size());
  }
  // PartitionFinder::InduceCandidates, once per C-subset, serially.
  {
    TreeAttributeCache cache =
        Unwrap(TreeAttributeCache::Build(*state.analysis, state.cond_indices),
               "TreeAttributeCache");
    double total = 0.0;
    for (const std::vector<int>& subset : state.c_subsets) {
      std::vector<int> attrs;
      for (int c : subset) attrs.push_back(state.cond_indices[static_cast<size_t>(c)]);
      const Clock::time_point start = Clock::now();
      Result<std::vector<PartitionCandidate>> candidates =
          PartitionFinder::InduceCandidates(*state.analysis, state.labelings, attrs,
                                            options, &cache, nullptr);
      total += SecondsSince(start);
      if (!candidates.ok()) Die("InduceCandidates: " + candidates.status().ToString());
    }
    probe.induce_candidates_s = total / static_cast<double>(state.c_subsets.size());
  }
  // The run's shortlist moments: the canonical all-rows block fold.
  {
    std::vector<const std::vector<double>*> columns;
    if (!state.tran_columns.ResolveColumns(state.tran_names, &columns)) {
      Die("shortlist columns missing from the column cache");
    }
    std::vector<double> times;
    for (int rep = 0; rep < 5; ++rep) {
      const Clock::time_point start = Clock::now();
      SufficientStats stats =
          AccumulateRangeBlocks(columns, state.y_new,
                                static_cast<int64_t>(state.y_new.size()),
                                options.stats_block_rows);
      times.push_back(SecondsSince(start));
      if (stats.n() != static_cast<int64_t>(state.y_new.size())) Die("fold row count");
    }
    probe.shortlist_fold_s = Median(times);
  }
  // SharedLeafFitCache::Lookup over every distinct (leaf, T) key phase 3
  // probes, against the context's cross-run cache.
  if (context != nullptr) {
    std::vector<LeafKey> keys;
    std::vector<std::vector<int64_t>> seen;
    for (const RunState::PartitionEntry& entry : state.partitions) {
      for (const DecisionTree::Leaf& leaf : entry.candidate.leaves) {
        seen.push_back(leaf.rows.indices());
      }
    }
    std::sort(seen.begin(), seen.end());
    seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
    double rows = 0.0;
    for (const std::vector<int64_t>& leaf : seen) {
      for (size_t ti = 0; ti < state.t_subsets.size(); ++ti) {
        keys.push_back(LeafKey{state.fingerprint, ti, leaf});
        rows += static_cast<double>(leaf.size());
      }
    }
    std::vector<double> per_key;
    for (int rep = 0; rep < 3; ++rep) {
      const Clock::time_point start = Clock::now();
      for (const LeafKey& key : keys) {
        SharedLeafFit fit;
        context->leaf_cache()->Lookup(key, &fit);
      }
      per_key.push_back(SecondsSince(start) * 1e9 / static_cast<double>(keys.size()));
    }
    probe.lookup_ns = Median(per_key);
    probe.key_rows = rows / static_cast<double>(keys.size());
  }
  return probe;
}

// --- Main -------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (argc % 2 != 1) Die("flags take one value each");
  if (args.workload != "cold_csv" && args.workload != "explore_tradeoff") {
    Die("--workload must be cold_csv or explore_tradeoff");
  }
  if (!(args.seconds > 0)) Die("--seconds must be positive");
  return args;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const int nproc = UsableCpus();
  const bool release = std::strcmp(CHARLES_BENCH_BUILD_TYPE, "Release") == 0;
  if (!release) {
    std::fprintf(stderr, "WARNING: build type '%s' is not Release; timings are not "
                 "comparable\n", CHARLES_BENCH_BUILD_TYPE);
  }

  Workload w;
  w.name = args.workload;
  const Clock::time_point prepare_start = Clock::now();
  if (w.name == "cold_csv") {
    PrepareColdCsv(w, args.seed, nproc);
  } else {
    PrepareExplore(w, args.seed, nproc);
  }

  // Correctness gate, before timing and outside set-up (cold_csv computes
  // its references while choosing its pairs).
  for (RequestKind& kind : w.kinds) {
    if (kind.reference.signatures.empty()) ComputeReference(w, kind, nproc);
  }
  const bool recall_ok = CheckRecall(w);
  std::printf("inputs and references: %zu kinds in %.2f s; first: %lld labelings, "
              "%lld partitions, %lld candidates\n",
              w.kinds.size(), SecondsSince(prepare_start),
              static_cast<long long>(w.kinds[0].reference_counts.labelings),
              static_cast<long long>(w.kinds[0].reference_counts.partitions),
              static_cast<long long>(w.kinds[0].reference_counts.candidates_evaluated));

  std::printf("meta {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
              "\"trace\": %d, \"nproc\": %d, \"clients\": 1, \"pool_threads\": %d, "
              "\"compiler\": \"%s\", \"build_type\": \"%s\", \"release\": %s, "
              "\"kernel_used\": \"%s\", \"commit\": \"%s\", \"request_kinds\": %zu}\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, nproc, w.pool_threads,
              CHARLES_BENCH_COMPILER, CHARLES_BENCH_BUILD_TYPE,
              release ? "true" : "false", w.kernel_used.c_str(), args.commit.c_str(),
              w.kinds.size());

  // Set-up: the context plus its warm-fill queries, or (cold_csv) loading
  // the inputs; repeated at least three times and for at least
  // kSetupSeconds, median reported. The last context serves.
  std::vector<double> setup_times;
  std::unique_ptr<EngineContext> context;
  const Clock::time_point setup_start = Clock::now();
  while (setup_times.size() < 3 || SecondsSince(setup_start) < kSetupSeconds) {
    context.reset();
    const Clock::time_point start = Clock::now();
    if (w.set_up) {
      context = w.set_up();
    } else {
      w.load_inputs();
    }
    setup_times.push_back(SecondsSince(start));
  }
  if (w.warm_up) w.warm_up(context.get());
  std::printf("setup (s):");
  for (double v : setup_times) std::printf(" %.4f", v);
  std::printf("\n");

  Metrics metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = recall_ok;

  if (!args.trace) {
    LoopResult loop = RunLoop(w, context.get(), args.seconds, false, kMinCycles);
    attempted = static_cast<int64_t>(loop.samples.size());
    failed = loop.failed;
    std::vector<double> latency;
    std::vector<double> first_update;
    for (const Sample& s : loop.samples) {
      latency.push_back(s.latency);
      first_update.push_back(s.first_update);
    }
    metrics.Set("latency_p50_s", Median(latency), "s");
    metrics.Set("latency_p90_s", Quantile(latency, 0.9), "s");
    metrics.Set("throughput_rps", static_cast<double>(attempted) / loop.wall, "1/s");
    metrics.Set("first_update_p50_s", Median(first_update), "s");
    metrics.Set("setup_s", Median(setup_times), "s");
    metrics.Set("peak_rss_mb", PeakRssMb(), "MB");
    std::printf("requests %lld in %.3f s, %lld cycles (each kind timed %lld times); "
                "fail_ratio %.6f (%lld of %lld)\n",
                static_cast<long long>(attempted), loop.wall,
                static_cast<long long>(loop.cycles), static_cast<long long>(loop.cycles),
                attempted > 0 ? static_cast<double>(failed) / attempted : 0.0,
                static_cast<long long>(failed), static_cast<long long>(attempted));
    std::printf("per kind, median latency / first update (s):\n");
    for (size_t k = 0; k < w.kinds.size(); ++k) {
      std::vector<double> mine, mine_first;
      for (const Sample& s : loop.samples) {
        if (s.kind != static_cast<int>(k)) continue;
        mine.push_back(s.latency);
        mine_first.push_back(s.first_update);
      }
      std::printf("  %-28s %.4f / %.4f\n", w.kinds[k].label.c_str(), Median(mine),
                  Median(mine_first));
    }
    metrics.PrintTable("end-to-end metrics (untraced):");
  } else {
    // One loop of untraced and traced requests (see RunLoop): untraced
    // requests give the latency the trace overhead is measured against and
    // the engine's own phase timings; traced requests are driven stage by
    // stage. At least one whole cycle.
    LoopResult loop = RunLoop(w, context.get(), args.seconds, true, 1);
    attempted = static_cast<int64_t>(loop.samples.size());
    failed = loop.failed;
    std::vector<const Sample*> plain, traced;
    for (const Sample& s : loop.samples) (s.traced ? traced : plain).push_back(&s);

    std::vector<double> plain_latency, traced_latency;
    for (const Sample* s : plain) plain_latency.push_back(s->latency);
    std::vector<double> stage[6], stage_sum, other, teardown, csv_read, unify, admit;
    std::vector<double> computed, reused, folds;
    int attribution_misses = 0;
    for (const Sample* s : traced) {
      traced_latency.push_back(s->latency);
      for (int i = 0; i < 6; ++i) stage[i].push_back(s->times.stage[i]);
      const double sum = s->times.StageSum();
      const double rest = s->latency - s->times.csv_read - s->times.unify - sum;
      const double unexplained = rest - s->times.admit_wait - s->times.teardown;
      stage_sum.push_back(sum);
      other.push_back(rest);
      teardown.push_back(s->times.teardown);
      csv_read.push_back(s->times.csv_read);
      unify.push_back(s->times.unify);
      admit.push_back(s->times.admit_wait);
      computed.push_back(static_cast<double>(s->leaf_fits_computed));
      reused.push_back(static_cast<double>(s->leaf_fits_reused));
      folds.push_back(static_cast<double>(s->score_leaf_folds));
      // Attribution: the outside-timed stages, plus ingest, admission and
      // teardown, must account for the request's wall time within a few
      // percent.
      if (std::fabs(unexplained) > 0.03 * s->latency + 0.002) ++attribution_misses;
    }
    const double requests = static_cast<double>(std::max<size_t>(1, loop.samples.size()));

    // Attribution, second half: each search phase, timed from outside on
    // the traced requests, agrees with the engine's own timing of that phase
    // on the untraced requests of the same loop. Each request runs untraced
    // and traced, back to back, so the check takes the median over those
    // pairs of outside / engine: the pairs share input and host speed, and
    // one stalled request cannot swing a median.
    const char* const phase_names[3] = {"phase1 vs clustering_seconds",
                                        "phase2 vs induction_seconds",
                                        "phase3 vs fitting_seconds"};
    auto engine_phase = [](const Sample& s, int i) {
      return i == 0 ? s.clustering : i == 1 ? s.induction : s.fitting;
    };
    bool attribution_ok = attribution_misses == 0;
    for (int i = 0; i < 3; ++i) {
      std::vector<double> ratios;
      for (size_t j = 0; j + 1 < loop.samples.size(); j += 2) {
        const bool first_traced = loop.samples[j].traced;
        const Sample& t = loop.samples[first_traced ? j : j + 1];
        const Sample& u = loop.samples[first_traced ? j + 1 : j];
        ratios.push_back(t.times.stage[2 + i] / engine_phase(u, i));
      }
      const double ratio = Median(ratios);
      const bool ok = std::fabs(ratio - 1.0) <= kAttributionTolerance;
      std::printf("attribution %-30s outside / engine %.3f %s\n", phase_names[i], ratio,
                  ok ? "ok" : "MISMATCH");
      if (!ok) attribution_ok = false;
    }
    std::printf("attribution per request: %d of %zu requests outside 3%% "
                "(median outside the stages and ingest %.5f s)\n",
                attribution_misses, traced.size(), Median(other));

    // Serial pass: deterministic counters and serial single-layer timings.
    // Runs after the loop's context counters were read; it may touch the
    // cache freely.
    SerialProbe mix;
    bool serial_ok = true;
    for (const auto& [k, weight] : w.representative) {
      SerialProbe p = RunSerialProbe(w.kinds[static_cast<size_t>(k)], context.get());
      if (!p.reproduced || !p.counts_match) {
        std::printf("serial pass %s: %s\n", w.kinds[static_cast<size_t>(k)].label.c_str(),
                    !p.reproduced ? "ranking differs from the reference"
                                  : "deterministic counters differ from the "
                                    "multi-threaded reference");
        serial_ok = false;
      }
      mix.cluster_residuals_s += weight * p.cluster_residuals_s;
      mix.induce_candidates_s += weight * p.induce_candidates_s;
      mix.shortlist_fold_s += weight * p.shortlist_fold_s;
      mix.lookup_ns += weight * p.lookup_ns;
      mix.key_rows += weight * p.key_rows;
    }
    // Deterministic counters, weighted by each kind's share of the mix.
    double det[7] = {0, 0, 0, 0, 0, 0, 0};
    for (const auto& [k, weight] : w.representative) {
      const DeterministicCounts& c = w.kinds[static_cast<size_t>(k)].reference_counts;
      const int64_t values[7] = {c.condition_subsets,    c.transform_subsets,
                                 c.labelings,            c.partitions,
                                 c.work_items,           c.candidates_evaluated,
                                 c.candidates_deduped};
      for (int i = 0; i < 7; ++i) det[i] += weight * static_cast<double>(values[i]);
    }

    const bool csv = !w.kinds[0].source_csv.empty();
    metrics.Set("csv.read_s", csv ? Median(csv_read) : 0.0, "s");
    metrics.Set("diff.unify_s", csv ? Median(unify) : 0.0, "s");
    metrics.Set("stage.diff_align_s", Median(stage[0]), "s");
    metrics.Set("stage.attr_setup_s", Median(stage[1]), "s");
    metrics.Set("stage.phase1_signals_s", Median(stage[2]), "s");
    metrics.Set("stage.phase2_trees_s", Median(stage[3]), "s");
    metrics.Set("stage.phase3_fits_s", Median(stage[4]), "s");
    metrics.Set("stage.rank_stream_s", Median(stage[5]), "s");
    metrics.Set("stage.sum_s", Median(stage_sum), "s");
    metrics.Set("driver.other_s", Median(other), "s");
    metrics.Set("driver.teardown_s", Median(teardown), "s");
    metrics.Set("trace_overhead_s", Median(traced_latency) - Median(plain_latency), "s");
    metrics.Set("partition_finder.cluster_residuals_s", mix.cluster_residuals_s, "s");
    metrics.Set("partition_finder.cluster_residuals_calls", det[1], "count");
    metrics.Set("partition_finder.induce_candidates_s", mix.induce_candidates_s, "s");
    metrics.Set("partition_finder.induce_candidates_calls", det[0], "count");
    metrics.Set("linalg.shortlist_fold_s", mix.shortlist_fold_s, "s");
    metrics.Set("work.condition_subsets", det[0], "count");
    metrics.Set("work.transform_subsets", det[1], "count");
    metrics.Set("work.labelings", det[2], "count");
    metrics.Set("work.partitions", det[3], "count");
    metrics.Set("work.work_items", det[4], "count");
    metrics.Set("work.candidates_evaluated", det[5], "count");
    metrics.Set("work.candidates_deduped", det[6], "count");
    metrics.Set("ratio.dedup_waste", det[5] > 0 ? det[6] / det[5] : 0.0, "ratio");
    const double fits_computed = Mean(computed);
    const double fits_reused = Mean(reused);
    metrics.Set("work.leaf_fits_computed", fits_computed, "count_sched");
    metrics.Set("work.leaf_fits_reused", fits_reused, "count_sched");
    metrics.Set("work.score_leaf_folds", Mean(folds), "count_sched");
    metrics.Set("ratio.fit_reuse",
                fits_computed + fits_reused > 0
                    ? fits_reused / (fits_computed + fits_reused)
                    : 0.0,
                "ratio_sched");
    metrics.Set("leaf_cache.lookup_ns", mix.lookup_ns, "ns");
    metrics.Set("leaf_cache.key_rows", mix.key_rows, "rows");
    metrics.Set("context.cache_hits", static_cast<double>(loop.cache_hits) / requests,
                "count_sched");
    metrics.Set("context.cache_misses",
                static_cast<double>(loop.cache_misses) / requests, "count_sched");
    metrics.Set("context.cache_entries", static_cast<double>(loop.cache_entries),
                "count_sched");
    metrics.Set("ratio.cache_hit",
                loop.cache_hits + loop.cache_misses > 0
                    ? static_cast<double>(loop.cache_hits) /
                          static_cast<double>(loop.cache_hits + loop.cache_misses)
                    : 0.0,
                "ratio_sched");
    metrics.Set("context.admit_wait_s", context != nullptr ? Median(admit) : 0.0, "s");
    std::printf("requests %zu untraced + %zu traced in %.3f s; fail_ratio %.6f\n",
                plain.size(), traced.size(), loop.wall,
                attempted > 0 ? static_cast<double>(failed) / attempted : 0.0);
    metrics.PrintTable("per-layer metrics (traced):");
    if (!attribution_ok) std::printf("FAIL: attribution self-check\n");
    if (!serial_ok) std::printf("FAIL: serial pass\n");
    correct = correct && attribution_ok && serial_ok;
  }

  if (failed > 0) correct = false;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), metrics.Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace repobench
}  // namespace charles

int main(int argc, char** argv) { return charles::repobench::Main(argc, argv); }
