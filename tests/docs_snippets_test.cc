/// \file
/// Compiles the code snippets of docs/api.md and docs/observability.md
/// verbatim and smoke-runs them on the Example-1 workload, so the
/// documentation cannot drift from the API. If you change a snippet here,
/// change the doc page too (and vice versa) — the docs CI job runs this
/// test.

#include <gtest/gtest.h>

#include "workload/example1.h"

// --- docs/api.md "Minimal usage" -------------------------------------------

#include "core/charles.h"

charles::Result<charles::SummaryList> Quickstart(
    const charles::Table& snapshot_2016, const charles::Table& snapshot_2017) {
  charles::CharlesOptions options;
  options.target_attribute = "bonus";
  options.key_columns = {"name"};
  options.num_threads = 0;  // 0 = hardware concurrency, 1 = serial
  return charles::SummarizeChanges(snapshot_2016, snapshot_2017, options);
}

// --- docs/api.md "Serving / repeated queries" ------------------------------

class SummaryService {
 public:
  explicit SummaryService(int num_threads)
      : context_(charles::EngineContextOptions{num_threads, /*cache_shards=*/0}) {}

  charles::Result<charles::SummaryList> Serve(
      const charles::Table& source, const charles::Table& target,
      const charles::CharlesOptions& options) {
    charles::CharlesEngine engine(options, &context_);
    return engine.Find(source, target);  // warm after the first identical query
  }

 private:
  charles::EngineContext context_;  // pool + cache live as long as the service
};

// --- docs/api.md "Bounding the serving cache" ------------------------------

class BoundedSummaryService {
 public:
  BoundedSummaryService()
      : context_(charles::EngineContextOptions{
            /*num_threads=*/0, /*cache_shards=*/0,
            /*max_cache_entries=*/10000}) {}  // LRU bound on cached leaf fits

  charles::Result<charles::SummaryList> Serve(
      const charles::Table& source, const charles::Table& target,
      const charles::CharlesOptions& run_options) {
    charles::CharlesEngine engine(run_options, &context_);
    return engine.Find(source, target);  // cache stays warm and stays bounded
  }

  int64_t evictions() const { return context_.leaf_cache_evictions(); }

 private:
  charles::EngineContext context_;  // long-lived: the bound is its point
};

// --- docs/api.md "Exploring the trade-off" ---------------------------------

#include <vector>

#include "core/charles.h"

std::vector<charles::SummaryList> ExploreTradeoff(
    const charles::Table& source, const charles::Table& target,
    charles::CharlesOptions options, charles::EngineContext* context) {
  std::vector<charles::SummaryList> steps;
  for (int c : {3, 2, 1}) {
    for (double alpha : {0.2, 0.5, 0.8}) {
      options.max_condition_attrs = c;
      options.alpha = alpha;
      charles::Result<charles::SummaryList> step =
          charles::SummarizeChanges(source, target, options, context);
      if (step.ok()) steps.push_back(std::move(*step));
    }
  }
  return steps;  // 9 rankings; phases 1–2 ran 3 times
}

// --- docs/api.md "Streaming" -----------------------------------------------

#include <cstdio>
#include <future>

charles::Result<charles::SummaryList> StreamingSearch(
    const charles::Table& source, const charles::Table& target,
    const charles::CharlesOptions& options, charles::EngineContext* context) {
  charles::CharlesEngine engine(options, context);
  charles::SummaryStream stream([](const charles::SummaryStreamUpdate& update) {
    if (!update.provisional.empty()) {
      std::printf("[%lld/%lld] best so far: score %.4f\n",
                  static_cast<long long>(update.shards_completed),
                  static_cast<long long>(update.shards_total),
                  update.provisional.front().scores().score);
    }
  });
  std::future<charles::Result<charles::SummaryList>> future =
      engine.FindAsync(source, target, &stream);
  // ... render partial rankings while the sweep runs ...
  return future.get();  // deterministic final ranking
}

// --- docs/api.md "Cancellation" --------------------------------------------

charles::Result<charles::SummaryList> SearchUntilGoodEnough(
    const charles::Table& source, const charles::Table& target,
    const charles::CharlesOptions& options, charles::StopToken* stop) {
  charles::CharlesEngine engine(options);
  charles::SummaryStream stream(
      [stop](const charles::SummaryStreamUpdate& update) {
        // Stop reading once the leader clears the bar; the run then resolves
        // with Status::Cancelled and this stream's final update has
        // update.cancelled set, with the best ranking found so far.
        if (!update.provisional.empty() &&
            update.provisional.front().scores().score > 0.95) {
          stop->RequestStop();
        }
      });
  return engine.FindAsync(source, target, &stream, stop).get();
}

// --- docs/api.md "Distributed shard execution" ------------------------------

charles::Result<charles::SummaryList> ShardedSearch(
    const charles::Table& snapshot_2016, const charles::Table& snapshot_2017) {
  charles::CharlesOptions options;
  options.target_attribute = "bonus";
  options.key_columns = {"name"};
  options.num_shards = 8;  // row-range shards; ranking identical at any count
  options.shard_backend = charles::ShardBackendKind::kInProcess;
  return charles::SummarizeChanges(snapshot_2016, snapshot_2017, options);
}

// --- docs/api.md "Remote workers" -------------------------------------------

#include <string>
#include <vector>

charles::Result<charles::SummaryList> RemoteSearch(
    const charles::Table& snapshot_2016, const charles::Table& snapshot_2017,
    const std::vector<std::string>& worker_endpoints) {
  charles::CharlesOptions options;
  options.target_attribute = "bonus";
  options.key_columns = {"name"};
  options.num_shards = 8;
  options.shard_backend = charles::ShardBackendKind::kRemote;
  options.remote_workers = worker_endpoints;  // {"host:9400", ...}
  options.remote_max_task_retries = 2;  // reassign on worker loss
  return charles::SummarizeChanges(snapshot_2016, snapshot_2017, options);
}

// --- docs/observability.md "Tracing a run" ----------------------------------

#include "obs/trace.h"

charles::Result<std::string> TracedRun(const charles::Table& source,
                                       const charles::Table& target,
                                       charles::CharlesOptions options) {
  options.trace = true;  // default off: zero cost, zero allocations
  charles::Result<charles::SummaryList> result =
      charles::SummarizeChanges(source, target, options);
  if (!result.ok()) return result.status();
  // One Chrome trace_event document; open in about:tracing or Perfetto.
  return result->trace->ToChromeTraceJson();
}

// --- docs/observability.md "Metrics" ----------------------------------------

#include "obs/metrics.h"

std::pair<std::string, std::string> MetricsSnapshots() {
  charles::obs::MetricsRegistry& metrics =
      charles::obs::MetricsRegistry::Global();
  charles::obs::Histogram* latency = metrics.histogram("myapp.request_seconds");
  latency->Observe(0.012);
  double p99 = latency->P99();  // interpolated from the bucket counts
  (void)p99;
  return {metrics.TextSnapshot(), metrics.ToJson()};
}

// --- docs/observability.md "JSON diagnostics" -------------------------------

charles::Result<std::string> DiagnosticsJson(const charles::Table& source,
                                             const charles::Table& target,
                                             const charles::CharlesOptions& options) {
  charles::Result<charles::SummaryList> result =
      charles::SummarizeChanges(source, target, options);
  if (!result.ok()) return result.status();
  return result->ToJson();  // {"schema_version":3,"run_id":"…",…}
}

// --- docs/observability.md "Log correlation" --------------------------------

void LogQuietly() {
  charles::SetLogThreshold(charles::LogLevel::kWarning);
  CHARLES_VLOG(Info) << "suppressed: below the threshold";
  CHARLES_VLOG(Warning) << "emitted";
  charles::SetLogThreshold(charles::LogLevel::kInfo);
}

// --- smoke runs -------------------------------------------------------------

#include "distributed/worker_service.h"

namespace charles {
namespace {

TEST(DocsSnippetsTest, QuickstartRuns) {
  Table source = MakeExample1Source().ValueOrDie();
  Table target = MakeExample1Target().ValueOrDie();
  SummaryList result = Quickstart(source, target).ValueOrDie();
  ASSERT_FALSE(result.summaries.empty());
  EXPECT_GT(result.summaries[0].scores().score, 0.0);
}

TEST(DocsSnippetsTest, ServingSnippetWarmsAcrossQueries) {
  Table source = MakeExample1Source().ValueOrDie();
  Table target = MakeExample1Target().ValueOrDie();
  CharlesOptions options;
  options.target_attribute = "bonus";
  options.key_columns = {"name"};

  SummaryService service(/*num_threads=*/2);
  SummaryList cold = service.Serve(source, target, options).ValueOrDie();
  SummaryList warm = service.Serve(source, target, options).ValueOrDie();
  EXPECT_GT(cold.leaf_fits_computed, 0);
  EXPECT_EQ(warm.leaf_fits_computed, 0);
  ASSERT_EQ(cold.summaries.size(), warm.summaries.size());
  for (size_t i = 0; i < cold.summaries.size(); ++i) {
    EXPECT_EQ(cold.summaries[i].ToString(), warm.summaries[i].ToString());
  }
}

TEST(DocsSnippetsTest, ExploreSnippetComputesPhasesOneAndTwoOncePerC) {
  Table source = MakeExample1Source().ValueOrDie();
  Table target = MakeExample1Target().ValueOrDie();
  CharlesOptions options;
  options.target_attribute = "bonus";
  options.key_columns = {"name"};

  EngineContext context;
  std::vector<SummaryList> steps = ExploreTradeoff(source, target, options, &context);
  ASSERT_EQ(steps.size(), 9u);
  EXPECT_EQ(context.phase_cache_misses(), 3);
  EXPECT_EQ(context.phase_cache_hits(), 6);
  for (size_t i = 0; i < steps.size(); ++i) {
    EXPECT_EQ(steps[i].phase_cache_hit, i % 3 != 0) << "step " << i;
  }
  context.ClearCaches();
  EXPECT_EQ(context.phase_cache_entries(), 0u);
  EXPECT_EQ(context.leaf_cache_entries(), 0u);
}

TEST(DocsSnippetsTest, BoundedServiceSnippetWarmsUnderTheBound) {
  Table source = MakeExample1Source().ValueOrDie();
  Table target = MakeExample1Target().ValueOrDie();
  CharlesOptions options;
  options.target_attribute = "bonus";
  options.key_columns = {"name"};

  BoundedSummaryService service;
  SummaryList cold = service.Serve(source, target, options).ValueOrDie();
  SummaryList warm = service.Serve(source, target, options).ValueOrDie();
  ASSERT_FALSE(cold.summaries.empty());
  // The workload fits comfortably under the 10k bound, so the second query
  // is served warm and nothing was evicted.
  EXPECT_EQ(warm.leaf_fits_computed, 0);
  EXPECT_EQ(service.evictions(), 0);
}

TEST(DocsSnippetsTest, CancellationSnippetResolvesEitherWay) {
  Table source = MakeExample1Source().ValueOrDie();
  Table target = MakeExample1Target().ValueOrDie();
  CharlesOptions options;
  options.target_attribute = "bonus";
  options.key_columns = {"name"};

  // Whether the bar is cleared mid-run (Cancelled) or never (a full run)
  // depends on the workload; the snippet must handle both outcomes.
  StopToken stop;
  Result<SummaryList> result = SearchUntilGoodEnough(source, target, options, &stop);
  if (!result.ok()) {
    EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();
    EXPECT_TRUE(stop.stop_requested());
  }
}

TEST(DocsSnippetsTest, ShardedSnippetMatchesUnsharded) {
  Table source = MakeExample1Source().ValueOrDie();
  Table target = MakeExample1Target().ValueOrDie();
  SummaryList sharded = ShardedSearch(source, target).ValueOrDie();
  CharlesOptions options;
  options.target_attribute = "bonus";
  options.key_columns = {"name"};
  SummaryList unsharded = SummarizeChanges(source, target, options).ValueOrDie();
  ASSERT_EQ(sharded.summaries.size(), unsharded.summaries.size());
  for (size_t i = 0; i < sharded.summaries.size(); ++i) {
    EXPECT_EQ(sharded.summaries[i].ToString(), unsharded.summaries[i].ToString());
  }
}

TEST(DocsSnippetsTest, RemoteSnippetMatchesUnsharded) {
  Table source = MakeExample1Source().ValueOrDie();
  Table target = MakeExample1Target().ValueOrDie();
  // The snippet's fleet, in-process: two loopback charles_worker services.
  std::unique_ptr<LoopbackWorker> a = LoopbackWorker::Start().ValueOrDie();
  std::unique_ptr<LoopbackWorker> b = LoopbackWorker::Start().ValueOrDie();
  SummaryList remote =
      RemoteSearch(source, target, {a->endpoint(), b->endpoint()}).ValueOrDie();
  CharlesOptions options;
  options.target_attribute = "bonus";
  options.key_columns = {"name"};
  SummaryList unsharded = SummarizeChanges(source, target, options).ValueOrDie();
  ASSERT_EQ(remote.summaries.size(), unsharded.summaries.size());
  for (size_t i = 0; i < remote.summaries.size(); ++i) {
    EXPECT_EQ(remote.summaries[i].ToString(), unsharded.summaries[i].ToString());
  }
  EXPECT_EQ(remote.remote_task_retries, 0);
}

TEST(DocsSnippetsTest, TracedRunSnippetExportsChromeJson) {
  Table source = MakeExample1Source().ValueOrDie();
  Table target = MakeExample1Target().ValueOrDie();
  CharlesOptions options;
  options.target_attribute = "bonus";
  options.key_columns = {"name"};
  std::string json = TracedRun(source, target, options).ValueOrDie();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"phase 1 (signals)\""), std::string::npos);
  EXPECT_NE(json.find("\"phase 3 (fits)\""), std::string::npos);
}

TEST(DocsSnippetsTest, MetricsSnippetProducesBothSnapshots) {
  std::pair<std::string, std::string> snapshots = MetricsSnapshots();
  EXPECT_NE(snapshots.first.find("myapp.request_seconds"), std::string::npos);
  EXPECT_NE(snapshots.second.find("\"myapp.request_seconds\""),
            std::string::npos);
  EXPECT_NE(snapshots.second.find("\"histograms\""), std::string::npos);
}

TEST(DocsSnippetsTest, DiagnosticsSnippetEmitsVersionedSchema) {
  Table source = MakeExample1Source().ValueOrDie();
  Table target = MakeExample1Target().ValueOrDie();
  CharlesOptions options;
  options.target_attribute = "bonus";
  options.key_columns = {"name"};
  std::string json = DiagnosticsJson(source, target, options).ValueOrDie();
  EXPECT_EQ(json.find("{\"schema_version\":3"), 0u);
  EXPECT_NE(json.find("\"run_id\":\""), std::string::npos);
  EXPECT_NE(json.find("\"elapsed\":"), std::string::npos);
}

TEST(DocsSnippetsTest, LogThresholdSnippetRestoresDefault) {
  LogQuietly();
  EXPECT_EQ(GetLogThreshold(), LogLevel::kInfo);
}

TEST(DocsSnippetsTest, StreamingSnippetResolvesWithFinalRanking) {
  Table source = MakeExample1Source().ValueOrDie();
  Table target = MakeExample1Target().ValueOrDie();
  CharlesOptions options;
  options.target_attribute = "bonus";
  options.key_columns = {"name"};

  EngineContext context;
  SummaryList streamed =
      StreamingSearch(source, target, options, &context).ValueOrDie();
  options.num_threads = 1;
  SummaryList serial = SummarizeChanges(source, target, options).ValueOrDie();
  ASSERT_EQ(streamed.summaries.size(), serial.summaries.size());
  for (size_t i = 0; i < serial.summaries.size(); ++i) {
    EXPECT_EQ(streamed.summaries[i].Signature(), serial.summaries[i].Signature());
  }
}

}  // namespace
}  // namespace charles
