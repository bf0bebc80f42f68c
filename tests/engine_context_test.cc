#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/engine_context.h"
#include "workload/employee_gen.h"
#include "workload/example1.h"
#include "workload/montgomery_gen.h"

namespace charles {
namespace {

/// Bit-identical ranked output: same summaries in the same order with
/// byte-equal renderings, bit-equal scores, and the same search trajectory.
void ExpectIdenticalRuns(const SummaryList& expected, const SummaryList& actual) {
  ASSERT_EQ(expected.summaries.size(), actual.summaries.size());
  for (size_t i = 0; i < expected.summaries.size(); ++i) {
    const ChangeSummary& a = expected.summaries[i];
    const ChangeSummary& b = actual.summaries[i];
    EXPECT_EQ(a.Signature(), b.Signature()) << "rank " << i;
    const double sa = a.scores().score, sb = b.scores().score;
    EXPECT_EQ(std::memcmp(&sa, &sb, sizeof(double)), 0) << "rank " << i;
    EXPECT_EQ(a.scores().accuracy, b.scores().accuracy) << "rank " << i;
    EXPECT_EQ(a.ToString(), b.ToString()) << "rank " << i;
  }
  EXPECT_EQ(expected.labelings, actual.labelings);
  EXPECT_EQ(expected.partitions, actual.partitions);
  EXPECT_EQ(expected.candidates_evaluated, actual.candidates_evaluated);
  EXPECT_EQ(expected.candidates_deduped, actual.candidates_deduped);
}

CharlesOptions Example1Options() {
  CharlesOptions options;
  options.target_attribute = "bonus";
  options.key_columns = {"name"};
  return options;
}

TEST(EngineContextTest, ResolvesThreadsAndBuildsCache) {
  EngineContextOptions ctx_options;
  ctx_options.num_threads = 3;
  EngineContext context(ctx_options);
  EXPECT_EQ(context.num_threads(), 3);
  ASSERT_NE(context.pool(), nullptr);
  EXPECT_EQ(context.pool()->size(), 3);
  ASSERT_NE(context.leaf_cache(), nullptr);
  EXPECT_EQ(context.leaf_cache()->num_shards(), 12);
  EXPECT_EQ(context.runs_completed(), 0);

  EngineContextOptions serial_options;
  serial_options.num_threads = 1;
  EngineContext serial(serial_options);
  EXPECT_EQ(serial.pool(), nullptr);  // serial contexts still share the cache
  EXPECT_NE(serial.leaf_cache(), nullptr);
}

TEST(EngineContextTest, ConsecutiveFindsBitIdenticalToFreshEngines) {
  Table source = MakeExample1Source().ValueOrDie();
  Table target = MakeExample1Target().ValueOrDie();
  CharlesOptions options = Example1Options();

  options.num_threads = 1;
  SummaryList fresh1 = CharlesEngine(options).Find(source, target).ValueOrDie();
  SummaryList fresh2 = CharlesEngine(options).Find(source, target).ValueOrDie();

  EngineContextOptions ctx_options;
  ctx_options.num_threads = 2;
  EngineContext context(ctx_options);
  CharlesEngine engine(options, &context);
  SummaryList cold = engine.Find(source, target).ValueOrDie();
  SummaryList warm = engine.Find(source, target).ValueOrDie();

  ExpectIdenticalRuns(fresh1, cold);
  ExpectIdenticalRuns(fresh2, warm);
  EXPECT_EQ(context.runs_completed(), 2);
  EXPECT_EQ(cold.threads_used, 2);
}

TEST(EngineContextTest, WarmRunServesFitsFromContextCache) {
  Table source = MakeExample1Source().ValueOrDie();
  Table target = MakeExample1Target().ValueOrDie();
  CharlesOptions options = Example1Options();

  EngineContext context;  // hardware concurrency; cache shared either way
  CharlesEngine engine(options, &context);
  SummaryList cold = engine.Find(source, target).ValueOrDie();
  size_t cached_after_cold = context.leaf_cache_entries();
  SummaryList warm = engine.Find(source, target).ValueOrDie();

  // Cold run computed and published fits; the warm run replays the identical
  // search, so every fit the cold run computed is served from the context
  // cache and nothing new is published.
  EXPECT_GT(cold.leaf_fits_computed, 0);
  EXPECT_GT(cached_after_cold, 0u);
  EXPECT_EQ(warm.leaf_fits_computed, 0);
  EXPECT_GT(warm.leaf_fits_reused, cold.leaf_fits_reused);
  EXPECT_EQ(context.leaf_cache_entries(), cached_after_cold);
  EXPECT_GT(context.leaf_cache_hits(), 0);
}

TEST(EngineContextTest, SerialContextStillWarmsAcrossRuns) {
  Table source = MakeExample1Source().ValueOrDie();
  Table target = MakeExample1Target().ValueOrDie();
  CharlesOptions options = Example1Options();

  EngineContextOptions ctx_options;
  ctx_options.num_threads = 1;
  EngineContext context(ctx_options);
  CharlesEngine engine(options, &context);
  SummaryList cold = engine.Find(source, target).ValueOrDie();
  SummaryList warm = engine.Find(source, target).ValueOrDie();

  EXPECT_EQ(cold.threads_used, 1);
  EXPECT_GT(cold.leaf_fits_computed, 0);
  EXPECT_EQ(warm.leaf_fits_computed, 0);

  options.num_threads = 1;
  SummaryList fresh = CharlesEngine(options).Find(source, target).ValueOrDie();
  ExpectIdenticalRuns(fresh, warm);
}

TEST(EngineContextTest, DifferentWorkloadsOnOneContextDoNotCrossTalk) {
  // Two different snapshot pairs share one context; the run fingerprint keys
  // the cache, so neither run may observe the other's fits.
  Table ex_source = MakeExample1Source().ValueOrDie();
  Table ex_target = MakeExample1Target().ValueOrDie();
  EmployeeGenOptions gen;
  gen.num_rows = 200;
  Table emp_source = GenerateEmployees(gen).ValueOrDie();
  Table emp_target = MakeEmployeeBonusPolicy().Apply(emp_source).ValueOrDie();

  CharlesOptions ex_options = Example1Options();
  CharlesOptions emp_options;
  emp_options.target_attribute = "bonus";
  emp_options.key_columns = {"emp_id"};

  EngineContext context;
  SummaryList ex_ctx =
      SummarizeChanges(ex_source, ex_target, ex_options, &context).ValueOrDie();
  SummaryList emp_ctx =
      SummarizeChanges(emp_source, emp_target, emp_options, &context).ValueOrDie();

  ex_options.num_threads = 1;
  emp_options.num_threads = 1;
  SummaryList ex_fresh = SummarizeChanges(ex_source, ex_target, ex_options).ValueOrDie();
  SummaryList emp_fresh =
      SummarizeChanges(emp_source, emp_target, emp_options).ValueOrDie();
  ExpectIdenticalRuns(ex_fresh, ex_ctx);
  ExpectIdenticalRuns(emp_fresh, emp_ctx);

  // Both workloads' fits coexist in the cache under distinct fingerprints.
  SummaryList ex_warm =
      SummarizeChanges(ex_source, ex_target, ex_options, &context).ValueOrDie();
  SummaryList emp_warm =
      SummarizeChanges(emp_source, emp_target, emp_options, &context).ValueOrDie();
  EXPECT_EQ(ex_warm.leaf_fits_computed, 0);
  EXPECT_EQ(emp_warm.leaf_fits_computed, 0);
  ExpectIdenticalRuns(ex_fresh, ex_warm);
  ExpectIdenticalRuns(emp_fresh, emp_warm);
}

TEST(EngineContextTest, BoundedCacheEvictsLruAndStaysCorrect) {
  Table source = MakeExample1Source().ValueOrDie();
  Table target = MakeExample1Target().ValueOrDie();
  CharlesOptions options = Example1Options();
  options.num_threads = 1;
  SummaryList fresh = CharlesEngine(options).Find(source, target).ValueOrDie();

  // How many distinct fits does this workload cache when unbounded? Both
  // contexts run one thread: a context's pool size overrides
  // options.num_threads, and with several threads the fit counters below
  // depend on scheduling.
  EngineContextOptions unbounded_options;
  unbounded_options.num_threads = 1;
  EngineContext unbounded(unbounded_options);
  CharlesEngine warmup(options, &unbounded);
  warmup.Find(source, target).ValueOrDie();
  size_t full = unbounded.leaf_cache_entries();
  ASSERT_GT(full, 4u);

  // A context bounded to a fraction of that must evict (LRU) yet change
  // nothing about the output — a miss only recomputes the identical fit.
  EngineContextOptions ctx_options;
  ctx_options.num_threads = 1;
  ctx_options.cache_shards = 1;  // single shard: the bound is exact
  ctx_options.max_cache_entries = static_cast<int64_t>(full / 2);
  EngineContext context(ctx_options);
  CharlesEngine engine(options, &context);
  SummaryList cold = engine.Find(source, target).ValueOrDie();
  SummaryList warm = engine.Find(source, target).ValueOrDie();

  ExpectIdenticalRuns(fresh, cold);
  ExpectIdenticalRuns(fresh, warm);
  EXPECT_LE(context.leaf_cache_entries(), full / 2);
  EXPECT_GT(context.leaf_cache_evictions(), 0);
  // The warm run re-fits evicted entries (never more work than a cold run —
  // with an LRU thrashing pattern possibly the same amount, never less
  // than one fit, since the bound guarantees something was evicted).
  EXPECT_GT(warm.leaf_fits_computed, 0);
  EXPECT_LE(warm.leaf_fits_computed, cold.leaf_fits_computed);
  EXPECT_EQ(warm.leaf_fit_evictions, context.leaf_cache_evictions());
}

TEST(EngineContextTest, ClearCachesDropsEntries) {
  Table source = MakeExample1Source().ValueOrDie();
  Table target = MakeExample1Target().ValueOrDie();
  EngineContext context;
  CharlesEngine engine(Example1Options(), &context);
  engine.Find(source, target).ValueOrDie();
  EXPECT_GT(context.leaf_cache_entries(), 0u);
  context.ClearCaches();
  EXPECT_EQ(context.leaf_cache_entries(), 0u);
  SummaryList recold = engine.Find(source, target).ValueOrDie();
  EXPECT_GT(recold.leaf_fits_computed, 0);
}

/// The run a context-free engine gives: the reference every warm run must
/// reproduce.
SummaryList NoContextRun(const Table& source, const Table& target,
                         CharlesOptions options) {
  options.num_threads = 1;
  return SummarizeChanges(source, target, options).ValueOrDie();
}

TEST(PhaseCacheTest, RepeatHitsAndSkipsPhasesOneAndTwo) {
  Table source = MakeExample1Source().ValueOrDie();
  Table target = MakeExample1Target().ValueOrDie();
  EngineContextOptions ctx_options;
  ctx_options.num_threads = 2;
  EngineContext context(ctx_options);
  CharlesEngine engine(Example1Options(), &context);
  SummaryList cold = engine.Find(source, target).ValueOrDie();
  SummaryList warm = engine.Find(source, target).ValueOrDie();

  EXPECT_FALSE(cold.phase_cache_hit);
  EXPECT_TRUE(warm.phase_cache_hit);
  EXPECT_EQ(context.phase_cache_misses(), 1);
  EXPECT_EQ(context.phase_cache_hits(), 1);
  EXPECT_EQ(context.phase_cache_entries(), 1u);
  ExpectIdenticalRuns(NoContextRun(source, target, Example1Options()), warm);
  EXPECT_NE(warm.ToJson().find("\"phase_cache_hit\":true"), std::string::npos);
  EXPECT_NE(cold.ToJson().find("\"phase_cache_hit\":false"), std::string::npos);

  // Runs without a context never touch a phase cache.
  CharlesOptions options = Example1Options();
  options.num_threads = 1;
  EXPECT_FALSE(SummarizeChanges(source, target, options).ValueOrDie().phase_cache_hit);
}

TEST(PhaseCacheTest, EveryInputOfPhasesOneAndTwoIsInTheKey) {
  EmployeeGenOptions gen;
  gen.num_rows = 120;
  const Table source = GenerateEmployees(gen).ValueOrDie();
  const Table target = MakeEmployeeBonusPolicy().Apply(source).ValueOrDie();
  CharlesOptions base;
  base.target_attribute = "bonus";
  base.key_columns = {"emp_id"};
  base.stats_block_rows = 64;
  base.max_condition_attrs = 2;

  // One changed condition-column cell, the same in both snapshots, so the
  // target (and with it the run id) is unchanged. The columns are forced so
  // the shortlists cannot move with the cell.
  CharlesOptions forced = base;
  forced.condition_attributes = {"edu", "gender", "exp"};
  forced.transform_attributes = {"bonus", "salary"};
  Table edited_source = source;
  Table edited_target = target;
  const int gender = source.schema().FieldIndex("gender").ValueOrDie();
  const Value flipped(source.GetValue(7, gender).ToString() == "F" ? "M" : "F");
  ASSERT_TRUE(edited_source.SetValue(7, gender, flipped).ok());
  ASSERT_TRUE(edited_target.SetValue(7, gender, flipped).ok());

  struct Flip {
    const char* name;
    std::function<void(CharlesOptions&)> apply;
    bool from_forced = false;  ///< flips `forced` instead of `base`
  };
  const std::vector<Flip> flips = {
      {"numeric_tolerance", [](CharlesOptions& o) { o.numeric_tolerance = 1e-5; }},
      {"normality", [](CharlesOptions& o) { o.normality.enable_snapping = false; }},
      {"max_transform_attrs", [](CharlesOptions& o) { o.max_transform_attrs = 1; }},
      {"stats_block_rows", [](CharlesOptions& o) { o.stats_block_rows = 32; }},
      {"max_clusters", [](CharlesOptions& o) { o.max_clusters = 4; }},
      {"max_condition_attrs", [](CharlesOptions& o) { o.max_condition_attrs = 1; }},
      {"tree_max_depth", [](CharlesOptions& o) { o.tree_max_depth = 2; }},
      {"min_partition_size", [](CharlesOptions& o) { o.min_partition_size = 5; }},
      {"max_partitions", [](CharlesOptions& o) { o.max_partitions = 20; }},
      {"condition_attributes",
       [](CharlesOptions& o) { o.condition_attributes = {"edu", "exp"}; }, true},
      {"transform_attributes",
       [](CharlesOptions& o) { o.transform_attributes = {"bonus"}; }, true},
  };

  EngineContextOptions ctx_options;
  ctx_options.num_threads = 2;
  EngineContext context(ctx_options);
  auto expect_miss = [&](const char* name, const Table& flip_source,
                         const Table& flip_target, const CharlesOptions& warm_options,
                         const CharlesOptions& flip_options) {
    SCOPED_TRACE(name);
    SummarizeChanges(source, target, warm_options, &context).ValueOrDie();
    const int64_t misses = context.phase_cache_misses();
    SummaryList flipped_run =
        SummarizeChanges(flip_source, flip_target, flip_options, &context).ValueOrDie();
    EXPECT_FALSE(flipped_run.phase_cache_hit);
    EXPECT_EQ(context.phase_cache_misses(), misses + 1);
    ExpectIdenticalRuns(NoContextRun(flip_source, flip_target, flip_options),
                        flipped_run);
  };
  for (const Flip& flip : flips) {
    const CharlesOptions& warm = flip.from_forced ? forced : base;
    CharlesOptions options = warm;
    flip.apply(options);
    expect_miss(flip.name, source, target, warm, options);
  }
  expect_miss("condition cell", edited_source, edited_target, forced, forced);

  // Options phases 1–2 do not read leave the search space warm.
  for (const Flip& flip : std::vector<Flip>{
           {"alpha", [](CharlesOptions& o) { o.alpha = 0.9; }},
           {"top_n", [](CharlesOptions& o) { o.top_n = 3; }},
           {"weights", [](CharlesOptions& o) { o.weights.coverage = 0.5; }}}) {
    SCOPED_TRACE(flip.name);
    CharlesOptions options = base;
    flip.apply(options);
    SummarizeChanges(source, target, base, &context).ValueOrDie();
    SummaryList hit = SummarizeChanges(source, target, options, &context).ValueOrDie();
    EXPECT_TRUE(hit.phase_cache_hit);
    ExpectIdenticalRuns(NoContextRun(source, target, options), hit);
  }
  EXPECT_LE(context.phase_cache_entries(), EngineContext::kPhaseCacheCapacity);
}

/// The trade-off explorer's shape (α × c over one snapshot pair). The
/// benchmark's 3k rows and 512 partitions are cut to 200 rows and 64
/// partitions to keep the test quick.
struct ExploreInputs {
  Table source;
  Table target;
  CharlesOptions Step(double alpha, int c) const {
    CharlesOptions options;
    options.target_attribute = "base_salary";
    options.key_columns = {"employee_id"};
    options.alpha = alpha;
    options.max_condition_attrs = c;
    options.max_partitions = 64;
    return options;
  }
};

ExploreInputs MakeExploreInputs() {
  MontgomeryGenOptions gen;
  gen.num_rows = 200;
  ExploreInputs inputs;
  inputs.source = GenerateMontgomery2016(gen).ValueOrDie();
  inputs.target = GenerateMontgomery2017(inputs.source).ValueOrDie();
  return inputs;
}

TEST(PhaseCacheTest, AllNineExploreStepsEqualNoContextRuns) {
  const ExploreInputs inputs = MakeExploreInputs();
  EngineContextOptions ctx_options;
  ctx_options.num_threads = 3;
  EngineContext context(ctx_options);
  for (double alpha : {0.2, 0.5, 0.8}) {
    for (int c : {3, 2, 1}) {
      SCOPED_TRACE("alpha " + std::to_string(alpha) + " c " + std::to_string(c));
      const CharlesOptions options = inputs.Step(alpha, c);
      SummaryList warm =
          SummarizeChanges(inputs.source, inputs.target, options, &context).ValueOrDie();
      // Only the first step of each c computes phases 1–2.
      EXPECT_EQ(warm.phase_cache_hit, alpha != 0.2);
      ExpectIdenticalRuns(NoContextRun(inputs.source, inputs.target, options), warm);
    }
  }
  EXPECT_EQ(context.phase_cache_misses(), 3);
  EXPECT_EQ(context.phase_cache_hits(), 6);
  EXPECT_EQ(context.phase_cache_entries(), 3u);

  context.ClearCaches();
  EXPECT_EQ(context.phase_cache_entries(), 0u);
  SummaryList recold = SummarizeChanges(inputs.source, inputs.target,
                                        inputs.Step(0.5, 2), &context)
                           .ValueOrDie();
  EXPECT_FALSE(recold.phase_cache_hit);
}

TEST(PhaseCacheTest, ConcurrentRunsWithDifferentCShareOneContext) {
  const ExploreInputs inputs = MakeExploreInputs();
  const SummaryList reference3 =
      NoContextRun(inputs.source, inputs.target, inputs.Step(0.5, 3));
  const SummaryList reference1 =
      NoContextRun(inputs.source, inputs.target, inputs.Step(0.5, 1));
  EngineContextOptions ctx_options;
  ctx_options.num_threads = 2;
  EngineContext context(ctx_options);
  auto client = [&](int c) {
    std::vector<SummaryList> runs;
    for (int i = 0; i < 3; ++i) {
      runs.push_back(SummarizeChanges(inputs.source, inputs.target,
                                      inputs.Step(0.5, c), &context)
                         .ValueOrDie());
    }
    return runs;
  };
  auto deep = std::async(std::launch::async, client, 3);
  auto shallow = std::async(std::launch::async, client, 1);
  for (const SummaryList& run : deep.get()) ExpectIdenticalRuns(reference3, run);
  for (const SummaryList& run : shallow.get()) ExpectIdenticalRuns(reference1, run);
  // Concurrent first runs of one c may both miss; every run looked once.
  EXPECT_EQ(context.phase_cache_hits() + context.phase_cache_misses(), 6);
  EXPECT_GE(context.phase_cache_hits(), 2);
  EXPECT_EQ(context.phase_cache_entries(), 2u);
}

TEST(StreamingFindTest, EmitsPartialsBeforeResolveAndMatchesSerial) {
  Table source = MakeExample1Source().ValueOrDie();
  Table target = MakeExample1Target().ValueOrDie();
  CharlesOptions options = Example1Options();
  options.top_n = 25;

  options.num_threads = 1;
  SummaryList serial = CharlesEngine(options).Find(source, target).ValueOrDie();

  for (int threads : {1, 2, 8}) {
    EngineContextOptions ctx_options;
    ctx_options.num_threads = threads;
    EngineContext context(ctx_options);
    CharlesEngine engine(options, &context);

    std::atomic<int64_t> updates{0};
    std::atomic<int64_t> last_completed{0};
    std::atomic<int64_t> shards_total{0};
    std::atomic<bool> monotone{true};
    SummaryStream stream([&](const SummaryStreamUpdate& update) {
      if (update.shards_completed <= last_completed.load()) monotone = false;
      last_completed = update.shards_completed;
      shards_total = update.shards_total;
      ++updates;
    });

    std::future<Result<SummaryList>> future = engine.FindAsync(source, target, &stream);
    SummaryList streamed = future.get().ValueOrDie();

    // >= 1 ranked partial arrived before the future resolved (every emission
    // happens while phase 3 is still executing), in shards_completed order,
    // and the full sweep was covered.
    EXPECT_GE(updates.load(), 1) << threads << " threads";
    EXPECT_EQ(stream.updates_emitted(), updates.load());
    EXPECT_TRUE(monotone.load());
    EXPECT_GT(shards_total.load(), 0);
    EXPECT_EQ(last_completed.load(), shards_total.load());

    // Streaming must not perturb the deterministic final ranking.
    ExpectIdenticalRuns(serial, streamed);
  }
}

TEST(StreamingFindTest, LastUpdateEqualsFinalRanking) {
  Table source = MakeExample1Source().ValueOrDie();
  Table target = MakeExample1Target().ValueOrDie();
  CharlesOptions options = Example1Options();

  EngineContextOptions ctx_options;
  ctx_options.num_threads = 4;
  EngineContext context(ctx_options);
  CharlesEngine engine(options, &context);

  std::vector<ChangeSummary> last_provisional;
  SummaryStream stream([&](const SummaryStreamUpdate& update) {
    if (update.shards_completed == update.shards_total) {
      last_provisional = update.provisional;
    }
  });
  SummaryList result = engine.Find(source, target, &stream).ValueOrDie();

  // Once every shard is merged, the provisional ranking IS the final one.
  ASSERT_EQ(last_provisional.size(), result.summaries.size());
  for (size_t i = 0; i < result.summaries.size(); ++i) {
    EXPECT_EQ(last_provisional[i].Signature(), result.summaries[i].Signature());
    EXPECT_EQ(last_provisional[i].scores().score, result.summaries[i].scores().score);
  }
}

TEST(AdmissionControlTest, UnboundedContextTracksActiveRuns) {
  EngineContext context(EngineContextOptions{/*num_threads=*/1});
  EXPECT_EQ(context.max_concurrent_runs(), 0);
  EXPECT_EQ(context.active_runs(), 0);
  {
    EngineContext::RunSlot slot = context.AdmitRun().ValueOrDie();
    EXPECT_EQ(context.active_runs(), 1);
  }
  EXPECT_EQ(context.active_runs(), 0);
  EXPECT_EQ(context.runs_queued(), 0);
  EXPECT_EQ(context.runs_rejected(), 0);
}

TEST(AdmissionControlTest, RejectPolicyShedsExcessRuns) {
  EngineContextOptions context_options;
  context_options.num_threads = 1;
  context_options.max_concurrent_runs = 1;
  context_options.admission = AdmissionPolicy::kReject;
  EngineContext context(context_options);

  Table source = MakeExample1Source().ValueOrDie();
  Table target = MakeExample1Target().ValueOrDie();
  CharlesEngine engine(Example1Options(), &context);

  // Occupy the only slot by hand; the engine's Find must now be refused.
  EngineContext::RunSlot slot = context.AdmitRun().ValueOrDie();
  Status refused = engine.Find(source, target).status();
  EXPECT_TRUE(refused.IsResourceExhausted()) << refused.ToString();
  EXPECT_EQ(context.runs_rejected(), 1);

  // Freeing the slot readmits immediately.
  slot.Release();
  EXPECT_TRUE(engine.Find(source, target).ok());
  EXPECT_EQ(context.active_runs(), 0);
}

TEST(AdmissionControlTest, QueuePolicyBlocksUntilASlotFrees) {
  EngineContextOptions context_options;
  context_options.num_threads = 1;
  context_options.max_concurrent_runs = 1;
  context_options.admission = AdmissionPolicy::kQueue;
  EngineContext context(context_options);

  Table source = MakeExample1Source().ValueOrDie();
  Table target = MakeExample1Target().ValueOrDie();
  CharlesEngine engine(Example1Options(), &context);

  EngineContext::RunSlot slot = context.AdmitRun().ValueOrDie();
  auto queued = engine.FindAsync(source, target);
  // The queued run must be waiting on admission, not running.
  while (context.runs_queued() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(context.active_runs(), 1);  // ours — the queued run holds nothing
  EXPECT_EQ(queued.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);

  slot.Release();
  SummaryList result = queued.get().ValueOrDie();
  EXPECT_FALSE(result.summaries.empty());
  EXPECT_EQ(context.runs_queued(), 1);
  EXPECT_EQ(context.active_runs(), 0);
}

TEST(AdmissionControlTest, QueuedRunCanBeCancelledWhileWaiting) {
  EngineContextOptions context_options;
  context_options.num_threads = 1;
  context_options.max_concurrent_runs = 1;
  context_options.admission = AdmissionPolicy::kQueue;
  EngineContext context(context_options);

  Table source = MakeExample1Source().ValueOrDie();
  Table target = MakeExample1Target().ValueOrDie();
  CharlesEngine engine(Example1Options(), &context);

  // Hold the only slot for the whole test: the queued run must leave via
  // its stop token, not via a freed slot.
  EngineContext::RunSlot slot = context.AdmitRun().ValueOrDie();
  StopToken stop;
  std::atomic<int64_t> cancelled_updates{0};
  SummaryStream stream([&](const SummaryStreamUpdate& update) {
    if (update.cancelled) ++cancelled_updates;
  });
  auto queued = engine.FindAsync(source, target, &stream, &stop);
  while (context.runs_queued() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.RequestStop();
  Status status = queued.get().status();
  EXPECT_TRUE(status.IsCancelled()) << status.ToString();
  // Even a run cancelled in the admission queue gets the promised final
  // cancelled stream update.
  EXPECT_EQ(cancelled_updates.load(), 1);
  EXPECT_EQ(context.active_runs(), 1);  // only the slot held by hand
}

TEST(AdmissionControlTest, SlotsReleaseOnEveryExitPath) {
  EngineContextOptions context_options;
  context_options.num_threads = 1;
  context_options.max_concurrent_runs = 1;
  context_options.admission = AdmissionPolicy::kReject;
  EngineContext context(context_options);
  Table source = MakeExample1Source().ValueOrDie();
  Table target = MakeExample1Target().ValueOrDie();

  // A run that fails validation-side (cancelled before phase 1 completes)
  // must still give its slot back.
  CharlesEngine engine(Example1Options(), &context);
  StopToken stop;
  stop.RequestStop();
  EXPECT_TRUE(engine.Find(source, target, nullptr, &stop).status().IsCancelled());
  EXPECT_EQ(context.active_runs(), 0);
  EXPECT_TRUE(engine.Find(source, target).ok());
}

TEST(EngineContextTest, WarmShardedRunElidesEveryLeafMomentsTask) {
  // Warm-rescan fix: a warm context already holds every (leaf, T) fit, so
  // the repeat sharded run must plan *zero* kLeafMoments work — the leaves
  // are elided from the task — while staying bit-identical.
  EmployeeGenOptions gen;
  gen.num_rows = 600;
  Table source = GenerateEmployees(gen).ValueOrDie();
  Table target = MakeEmployeeBonusPolicy().Apply(source).ValueOrDie();
  CharlesOptions options;
  options.target_attribute = "bonus";
  options.key_columns = {"emp_id"};
  options.stats_block_rows = 64;
  options.num_shards = 4;

  EngineContextOptions ctx_options;
  ctx_options.num_threads = 2;
  EngineContext context(ctx_options);
  CharlesEngine engine(options, &context);
  SummaryList cold = engine.Find(source, target).ValueOrDie();
  SummaryList warm = engine.Find(source, target).ValueOrDie();

  // Cold: nothing cached, so no leaf is elided and the one round sweeps the
  // changed leaves.
  EXPECT_GT(cold.shard_moment_leaves_swept, 0);
  EXPECT_EQ(cold.shard_moment_leaves_elided, 0);
  EXPECT_GT(cold.shard_tasks_executed, 0);
  EXPECT_GT(cold.shard_seconds, 0.0);

  // Warm: every leaf's fits are cached, so every leaf is elided — each one
  // the cold run swept among them — and the round dispatches no task.
  EXPECT_TRUE(warm.phase_cache_hit);
  EXPECT_EQ(warm.shard_moment_leaves_swept, 0);
  EXPECT_GE(warm.shard_moment_leaves_elided, cold.shard_moment_leaves_swept);
  EXPECT_EQ(warm.shard_tasks_executed, 0);
  // An elided round reports zero time — a skipped round must never surface
  // a residual or stale timing (SummaryList is per-run, and the round
  // timing is only written by a round that actually executed).
  EXPECT_EQ(warm.shard_seconds, 0.0);
  EXPECT_EQ(warm.leaf_fits_computed, 0);

  // The run id is fingerprint-derived: surfaced as 16 hex digits and stable
  // across repeat runs of the same inputs (it *is* the cache-keying
  // fingerprint when a context is attached).
  ASSERT_EQ(cold.run_id.size(), 16u);
  EXPECT_EQ(warm.run_id, cold.run_id);

  // Elision never changes output: warm equals cold equals a fresh unsharded
  // serial engine.
  CharlesOptions plain = options;
  plain.num_shards = 0;
  plain.num_threads = 1;
  SummaryList fresh = CharlesEngine(plain).Find(source, target).ValueOrDie();
  ExpectIdenticalRuns(fresh, cold);
  ExpectIdenticalRuns(fresh, warm);
}

TEST(StreamingFindTest, BlockingFindStreamsToo) {
  Table source = MakeExample1Source().ValueOrDie();
  Table target = MakeExample1Target().ValueOrDie();
  CharlesOptions options = Example1Options();
  options.num_threads = 1;  // no context: per-run serial engine also streams

  CharlesEngine engine(options);
  std::atomic<int64_t> updates{0};
  SummaryStream stream([&](const SummaryStreamUpdate& update) {
    EXPECT_LE(update.provisional.size(), static_cast<size_t>(options.top_n));
    ++updates;
  });
  SummaryList result = engine.Find(source, target, &stream).ValueOrDie();
  EXPECT_GE(updates.load(), 1);
  EXPECT_FALSE(result.summaries.empty());
}

}  // namespace
}  // namespace charles
