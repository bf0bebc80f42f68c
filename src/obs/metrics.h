#ifndef CHARLES_OBS_METRICS_H_
#define CHARLES_OBS_METRICS_H_

/// \file
/// \brief Process-wide named counters, gauges, and fixed-bucket histograms.
///
/// The engine's per-run SummaryList answers "what did this run do"; the
/// MetricsRegistry answers "what is this process doing" — admission and
/// cache traffic from EngineContext, dispatch/retry/health churn from the
/// remote fleet, latency distributions under concurrent load. Instruments are created on first
/// use by name, live for the process lifetime (pointers returned by the
/// registry are stable), and update lock-free with relaxed atomics — cheap
/// enough to leave on unconditionally.
///
/// `MetricsRegistry::Global()` is the process registry every engine
/// subsystem feeds (metric names are catalogued in docs/observability.md).
/// Tests and benches construct their own instances for isolation.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace charles {
namespace obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void Increment() { Add(1); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Instantaneous level (active runs, cache entries, high-water marks).
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  /// Raises the gauge to `value` if it is currently lower (high-water use).
  void Max(int64_t value) {
    int64_t current = value_.load(std::memory_order_relaxed);
    while (current < value &&
           !value_.compare_exchange_weak(current, value,
                                         std::memory_order_relaxed)) {
    }
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket histogram with quantile estimation.
///
/// Buckets are defined by ascending upper bounds; an observation lands in
/// the first bucket whose bound is >= the value, or in the implicit
/// overflow bucket past the last bound. Quantile(q) walks the cumulative
/// counts to the bucket containing rank q*count and interpolates linearly
/// inside it (the overflow bucket reports the last bound — a floor, not an
/// estimate). Observation is lock-free: per-bucket relaxed counters plus a
/// CAS-loop for the running sum.
class Histogram {
 public:
  /// `bounds` must be non-empty and strictly ascending.
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  int64_t Count() const;
  double Sum() const;
  /// The q-th quantile, q in [0, 1]. Returns 0 when empty.
  double Quantile(double q) const;
  double P50() const { return Quantile(0.50); }
  double P90() const { return Quantile(0.90); }
  double P99() const { return Quantile(0.99); }

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts, bounds().size() + 1 entries (last = overflow).
  std::vector<int64_t> BucketCounts() const;

  /// Log-spaced seconds bounds covering 100µs .. ~2 minutes — the default
  /// for latency histograms.
  static std::vector<double> DefaultLatencyBounds();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<int64_t>> counts_;  // bounds_.size() + 1
  std::atomic<int64_t> count_{0};
  std::atomic<uint64_t> sum_bits_{0};  // bit-cast double, CAS-updated
};

/// Name-keyed instrument registry. Lookup takes a mutex; the returned
/// pointers are stable for the registry's lifetime, so callers on hot
/// paths look up once and cache the pointer.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates the named counter.
  Counter* counter(const std::string& name);
  /// Finds or creates the named gauge.
  Gauge* gauge(const std::string& name);
  /// Finds or creates the named histogram. `bounds` is used only on first
  /// creation; empty means Histogram::DefaultLatencyBounds().
  Histogram* histogram(const std::string& name,
                       std::vector<double> bounds = {});

  /// Human-readable dump, one instrument per line, sorted by name.
  std::string TextSnapshot() const;
  /// Machine-readable dump: {"counters":{...},"gauges":{...},
  /// "histograms":{name:{count,sum,p50,p90,p99,buckets:[{le,count}...]}}}.
  std::string ToJson() const;

  /// The process-wide registry fed by the engine.
  static MetricsRegistry& Global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace obs
}  // namespace charles

#endif  // CHARLES_OBS_METRICS_H_
