/// \file
/// The observability layer (ISSUE 9): span nesting, ordering and
/// thread-local context; cross-process span import with rebasing; Chrome
/// trace export; histogram bucket-edge and quantile math; and registry
/// behavior (stable pointers, text/JSON snapshots) under concurrent update
/// from the pool.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "core/engine.h"
#include "obs/diagnostics.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/parallel.h"

namespace charles {
namespace {

// --- Spans ------------------------------------------------------------------

TEST(ObsTraceTest, NestedSpansParentNaturallyOnOneThread) {
  obs::TraceRecorder recorder(0x1234);
  {
    obs::Span outer(&recorder, "outer");
    EXPECT_TRUE(outer.active());
    EXPECT_EQ(outer.id(), 1u);
    {
      obs::Span inner(&recorder, "inner");
      EXPECT_EQ(inner.id(), 2u);
      inner.Annotate("k", "v");
    }
    obs::Span sibling(&recorder, "sibling");
    EXPECT_EQ(sibling.id(), 3u);
  }
  std::vector<obs::SpanRecord> spans = recorder.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].parent, 0u);  // root
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].parent, 1u);  // nested under outer
  EXPECT_EQ(spans[2].name, "sibling");
  EXPECT_EQ(spans[2].parent, 1u);  // inner closed; outer is current again
  ASSERT_EQ(spans[1].annotations.size(), 1u);
  EXPECT_EQ(spans[1].annotations[0].first, "k");
  EXPECT_EQ(spans[1].annotations[0].second, "v");
  // All closed, durations recorded, start order monotone per thread.
  for (const obs::SpanRecord& span : spans) EXPECT_GE(span.dur_ns, 0);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_LE(spans[1].start_ns, spans[2].start_ns);
  EXPECT_EQ(recorder.trace_id(), 0x1234u);
}

TEST(ObsTraceTest, NullRecorderSpanIsInert) {
  obs::Span span(nullptr, "never");
  EXPECT_FALSE(span.active());
  EXPECT_EQ(span.id(), 0u);
  span.Annotate("k", "v");  // no-op, must not crash
  obs::ThreadTraceContext context = obs::CurrentTraceContext();
  EXPECT_EQ(context.recorder, nullptr);
  EXPECT_EQ(context.span_id, 0u);
}

TEST(ObsTraceTest, CurrentTraceContextSeesInnermostSpan) {
  obs::TraceRecorder recorder;
  obs::RunIdScope run_scope(0xfeed);
  obs::Span outer(&recorder, "outer");
  {
    obs::Span inner(&recorder, "inner");
    obs::ThreadTraceContext context = obs::CurrentTraceContext();
    EXPECT_EQ(context.recorder, &recorder);
    EXPECT_EQ(context.span_id, inner.id());
    EXPECT_EQ(context.run_id, 0xfeedu);
  }
  EXPECT_EQ(obs::CurrentTraceContext().span_id, outer.id());
}

TEST(ObsTraceTest, RunIdScopeNestsAndRestores) {
  EXPECT_EQ(obs::CurrentRunId(), 0u);
  {
    obs::RunIdScope a(7);
    EXPECT_EQ(obs::CurrentRunId(), 7u);
    {
      obs::RunIdScope b(9);
      EXPECT_EQ(obs::CurrentRunId(), 9u);
    }
    EXPECT_EQ(obs::CurrentRunId(), 7u);
  }
  EXPECT_EQ(obs::CurrentRunId(), 0u);
  EXPECT_EQ(obs::FormatRunId(0xabcu), "0000000000000abc");
}

TEST(ObsTraceTest, ExplicitParentCrossesThreads) {
  obs::TraceRecorder recorder;
  uint64_t root_id = 0;
  {
    obs::Span root(&recorder, "root");
    root_id = root.id();
    ParallelFor(nullptr, 4, [&](int64_t i) {
      obs::Span child(&recorder, "child", root_id);
      child.Annotate("i", std::to_string(i));
    });
  }
  std::vector<obs::SpanRecord> spans = recorder.Snapshot();
  ASSERT_EQ(spans.size(), 5u);
  int64_t children = 0;
  for (const obs::SpanRecord& span : spans) {
    if (span.name == "child") {
      ++children;
      EXPECT_EQ(span.parent, root_id);
    }
  }
  EXPECT_EQ(children, 4);
}

TEST(ObsTraceTest, ImportSpansRemapsRebasesAndReparents) {
  obs::TraceRecorder recorder;
  uint64_t dispatch_id = 0;
  {
    obs::Span dispatch(&recorder, "dispatch");
    dispatch_id = dispatch.id();
  }
  // A worker blob: ids 1..2, starts relative to the worker's task start.
  std::vector<obs::SpanRecord> blob(2);
  blob[0].id = 1;
  blob[0].parent = 0;
  blob[0].name = "worker:task";
  blob[0].start_ns = 0;
  blob[0].dur_ns = 600;
  blob[1].id = 2;
  blob[1].parent = 1;
  blob[1].name = "fold";
  blob[1].start_ns = 100;
  blob[1].dur_ns = 400;
  recorder.ImportSpans(blob, dispatch_id, /*anchor_ns=*/50'000, /*tid=*/1001);

  std::vector<obs::SpanRecord> spans = recorder.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  const obs::SpanRecord& task = spans[1];
  const obs::SpanRecord& fold = spans[2];
  EXPECT_EQ(task.name, "worker:task");
  EXPECT_EQ(task.parent, dispatch_id);       // root re-parented on dispatch
  EXPECT_EQ(task.start_ns, 50'000);          // rebased to the anchor
  EXPECT_EQ(task.tid, 1001u);
  EXPECT_EQ(fold.parent, task.id);           // internal link remapped
  EXPECT_EQ(fold.start_ns, 50'100);
  EXPECT_EQ(fold.dur_ns, 400);
}

TEST(ObsTraceTest, ImportSpansSurvivesMalformedParents) {
  obs::TraceRecorder recorder;
  std::vector<obs::SpanRecord> blob(1);
  blob[0].id = 1;
  blob[0].parent = 99;  // dangling: worker bug or hostile frame
  blob[0].name = "orphan";
  blob[0].start_ns = 0;
  blob[0].dur_ns = -5;  // negative duration clamps to 0
  recorder.ImportSpans(blob, /*parent_for_roots=*/0, /*anchor_ns=*/0,
                       /*tid=*/1);
  std::vector<obs::SpanRecord> spans = recorder.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].parent, 0u);  // dangling parent defaults to the root
  EXPECT_EQ(spans[0].dur_ns, 0);
}

TEST(ObsTraceTest, ChromeTraceJsonCarriesSpansAndTraceId) {
  obs::TraceRecorder recorder(0xdeadbeef);
  {
    obs::Span outer(&recorder, "phase1");
    outer.Annotate("rows", "600");
    obs::Span inner(&recorder, "fold");
  }
  std::string json = recorder.ToChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"phase1\""), std::string::npos);
  EXPECT_NE(json.find("\"fold\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find(obs::FormatRunId(0xdeadbeef)), std::string::npos);
  EXPECT_NE(json.find("\"rows\":\"600\""), std::string::npos);
}

// --- Metrics ----------------------------------------------------------------

TEST(ObsMetricsTest, CounterAndGaugeBasics) {
  obs::Counter counter;
  counter.Increment();
  counter.Add(9);
  EXPECT_EQ(counter.Value(), 10);

  obs::Gauge gauge;
  gauge.Set(5);
  gauge.Add(-2);
  EXPECT_EQ(gauge.Value(), 3);
  gauge.Max(10);
  EXPECT_EQ(gauge.Value(), 10);
  gauge.Max(4);  // lower value never lowers a high-water gauge
  EXPECT_EQ(gauge.Value(), 10);
}

TEST(ObsMetricsTest, HistogramBucketEdges) {
  obs::Histogram histogram({1.0, 2.0, 4.0});
  // An observation lands in the first bucket whose bound is >= the value:
  // the bound itself belongs to its bucket, epsilon past it to the next.
  histogram.Observe(0.5);
  histogram.Observe(1.0);
  histogram.Observe(1.5);
  histogram.Observe(2.0);
  histogram.Observe(4.0);
  histogram.Observe(100.0);  // overflow
  std::vector<int64_t> counts = histogram.BucketCounts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2);  // 0.5, 1.0
  EXPECT_EQ(counts[1], 2);  // 1.5, 2.0
  EXPECT_EQ(counts[2], 1);  // 4.0
  EXPECT_EQ(counts[3], 1);  // 100.0
  EXPECT_EQ(histogram.Count(), 6);
  EXPECT_DOUBLE_EQ(histogram.Sum(), 0.5 + 1.0 + 1.5 + 2.0 + 4.0 + 100.0);
}

TEST(ObsMetricsTest, QuantileInterpolatesWithinBuckets) {
  obs::Histogram histogram({10.0, 20.0, 40.0});
  // 100 observations, uniform in (0, 10]: the whole mass sits in bucket 0.
  for (int i = 1; i <= 100; ++i) histogram.Observe(i * 0.1);
  // Rank q*100 inside [0, 10): linear interpolation from the bucket's lower
  // bound (0 for the first bucket) to its upper bound.
  EXPECT_NEAR(histogram.P50(), 5.0, 1e-9);
  EXPECT_NEAR(histogram.P90(), 9.0, 1e-9);
  EXPECT_NEAR(histogram.P99(), 9.9, 1e-9);
  EXPECT_NEAR(histogram.Quantile(0.0), 0.0, 1e-9);
  EXPECT_NEAR(histogram.Quantile(1.0), 10.0, 1e-9);
}

TEST(ObsMetricsTest, QuantileAcrossBucketsAndOverflowFloor) {
  obs::Histogram histogram({1.0, 2.0});
  histogram.Observe(0.5);   // bucket [0, 1]
  histogram.Observe(1.5);   // bucket (1, 2]
  histogram.Observe(50.0);  // overflow
  histogram.Observe(60.0);  // overflow
  // Ranks 3 and 4 are in the overflow bucket, which has no upper bound: the
  // quantile floors at the last finite bound rather than extrapolating.
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.99), 2.0);
  // Rank 0.25*4 = 1 lands at the end of the first bucket.
  EXPECT_NEAR(histogram.Quantile(0.25), 1.0, 1e-9);
  // Empty histogram: quantiles are 0.
  obs::Histogram empty({1.0});
  EXPECT_EQ(empty.Quantile(0.5), 0.0);
}

TEST(ObsMetricsTest, DefaultLatencyBoundsAscend) {
  std::vector<double> bounds = obs::Histogram::DefaultLatencyBounds();
  ASSERT_GE(bounds.size(), 2u);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

TEST(ObsMetricsTest, RegistryReturnsStablePointersByName) {
  obs::MetricsRegistry registry;
  obs::Counter* a = registry.counter("x");
  obs::Counter* b = registry.counter("x");
  EXPECT_EQ(a, b);
  EXPECT_NE(registry.counter("y"), a);
  // Same name, different kinds: distinct namespaces, distinct instruments.
  EXPECT_NE(static_cast<void*>(registry.gauge("x")), static_cast<void*>(a));
  obs::Histogram* h = registry.histogram("lat", {1.0, 2.0});
  EXPECT_EQ(registry.histogram("lat"), h);  // bounds ignored after creation
  EXPECT_EQ(h->bounds().size(), 2u);
}

TEST(ObsMetricsTest, SnapshotsRenderEveryInstrument) {
  obs::MetricsRegistry registry;
  registry.counter("engine.runs")->Add(3);
  registry.gauge("engine.active")->Set(1);
  registry.histogram("engine.lat", {0.1, 1.0})->Observe(0.05);
  std::string text = registry.TextSnapshot();
  EXPECT_NE(text.find("counter engine.runs 3"), std::string::npos) << text;
  EXPECT_NE(text.find("gauge engine.active 1"), std::string::npos) << text;
  EXPECT_NE(text.find("histogram engine.lat"), std::string::npos) << text;
  std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"engine.runs\":3"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
  EXPECT_NE(json.find("\"inf\""), std::string::npos);  // overflow bucket
}

TEST(ObsMetricsTest, ConcurrentUpdatesUnderThePoolLoseNothing) {
  obs::MetricsRegistry registry;
  ThreadPool pool(4);
  constexpr int64_t kTasks = 64;
  constexpr int64_t kPerTask = 1000;
  ParallelFor(&pool, kTasks, [&](int64_t task) {
    // Lookups race with updates: find-or-create must hand every thread the
    // same instrument, and relaxed updates must still sum exactly.
    obs::Counter* counter = registry.counter("hammer.count");
    obs::Histogram* histogram = registry.histogram("hammer.lat", {0.5});
    obs::Gauge* gauge = registry.gauge("hammer.high");
    for (int64_t i = 0; i < kPerTask; ++i) {
      counter->Increment();
      histogram->Observe(task % 2 == 0 ? 0.25 : 0.75);
      gauge->Max(task * kPerTask + i);
    }
  });
  EXPECT_EQ(registry.counter("hammer.count")->Value(), kTasks * kPerTask);
  EXPECT_EQ(registry.histogram("hammer.lat")->Count(), kTasks * kPerTask);
  std::vector<int64_t> counts = registry.histogram("hammer.lat")->BucketCounts();
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0] + counts[1], kTasks * kPerTask);
  EXPECT_EQ(counts[0], kTasks / 2 * kPerTask);
  EXPECT_EQ(registry.gauge("hammer.high")->Value(), kTasks * kPerTask - 1);
}

TEST(ObsMetricsTest, ConcurrentSpansOnOneRecorderStaySane) {
  obs::TraceRecorder recorder;
  ThreadPool pool(4);
  constexpr int64_t kSpans = 400;
  ParallelFor(&pool, kSpans, [&](int64_t i) {
    obs::Span span(&recorder, "work");
    if (i % 7 == 0) span.Annotate("i", std::to_string(i));
  });
  std::vector<obs::SpanRecord> spans = recorder.Snapshot();
  ASSERT_EQ(spans.size(), static_cast<size_t>(kSpans));
  std::vector<bool> seen(spans.size() + 1, false);
  for (const obs::SpanRecord& span : spans) {
    ASSERT_GE(span.id, 1u);
    ASSERT_LE(span.id, spans.size());
    EXPECT_FALSE(seen[span.id]);  // ids unique
    seen[span.id] = true;
    EXPECT_GE(span.dur_ns, 0);    // all closed
  }
}

// --- Diagnostics JSON -------------------------------------------------------

TEST(ObsDiagnosticsTest, RunDiagnosticsJsonHasVersionedSchema) {
  SummaryList summary;
  summary.run_id = "00000000deadbeef";
  summary.candidates_evaluated = 42;
  summary.trees_induced = 434;
  summary.split_scorings = 9001;
  summary.shards_used = 4;
  summary.remote_tasks_dispatched = 12;
  summary.elapsed_seconds = 1.5;
  RemoteWorkerCounters worker;
  worker.endpoint = "127.0.0.1:9000";
  worker.healthy = true;
  worker.tasks_dispatched = 12;
  summary.remote_workers.push_back(worker);

  obs::RunDiagnostics diagnostics = obs::RunDiagnostics::FromSummary(summary);
  std::string json = diagnostics.ToJson();
  EXPECT_EQ(json, summary.ToJson());  // SummaryList::ToJson delegates
  EXPECT_NE(json.find("\"schema_version\":5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"run_id\":\"00000000deadbeef\""), std::string::npos);
  EXPECT_NE(json.find("\"candidates_evaluated\":42"), std::string::npos);
  // Schema v5 added the phase-2 work counts.
  EXPECT_NE(json.find("\"work\":{\"trees_induced\":434,\"split_scorings\":9001}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"shards_used\":4"), std::string::npos);
  EXPECT_NE(json.find("\"127.0.0.1:9000\""), std::string::npos);
  EXPECT_NE(json.find("\"workers\":["), std::string::npos);
  // Schema v2 removed the batched-fold counters and the exact-L1 round;
  // v3 the signal-stats and score-partials rounds, and the moments-round
  // time, which equals `shard` now that there is one round; v4 the two
  // scoring counters that duplicated candidates_evaluated or read 0.
  EXPECT_EQ(json.find("batch"), std::string::npos) << json;
  EXPECT_EQ(json.find("error_probes"), std::string::npos) << json;
  EXPECT_EQ(json.find("score_probes"), std::string::npos) << json;
  EXPECT_EQ(json.find("shard_signal"), std::string::npos) << json;
  EXPECT_EQ(json.find("shard_score"), std::string::npos) << json;
  EXPECT_EQ(json.find("shard_moments"), std::string::npos) << json;
  EXPECT_EQ(json.find("partials_candidates"), std::string::npos) << json;
  EXPECT_EQ(json.find("yhat_materializations"), std::string::npos) << json;
}

}  // namespace
}  // namespace charles
