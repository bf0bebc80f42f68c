#ifndef CHARLES_CORE_ENGINE_CONTEXT_H_
#define CHARLES_CORE_ENGINE_CONTEXT_H_

/// \file
/// \brief Long-lived execution context shared across engine runs.
///
/// A CharlesEngine without a context builds everything it needs per run: a
/// ThreadPool is spawned and joined inside every Find() call, and every
/// cache dies with the run. That is the right shape for a one-shot CLI
/// invocation, but a serving process answering many requests pays the
/// thread spawn and redoes the whole search on every call.
///
/// An EngineContext owns three things that outlive a run:
///
///  - one ThreadPool, spawned when the context is created and reused by every
///    engine attached to the context (no per-request thread churn);
///  - one SharedLeafFitCache of leaf fits, so phase 3 of a repeated query
///    (same snapshots, same options) is served almost entirely from cached
///    OLS fits;
///  - one small LRU phase cache of search spaces, the products of phases 1
///    (exact 1-D k-means of the change signals) and 2 (condition trees), so
///    a re-query that only moves α — or returns to a c it asked before —
///    skips both phases.
///
/// Cached fits are keyed by a per-run \em fingerprint hashing everything a
/// leaf fit depends on (target attribute, tolerance, normality options, the
/// transformation shortlist and its column values, and the old/new target
/// vectors). Search spaces are keyed by that fingerprint mixed with
/// everything else phases 1–2 read: the clustering and tree options and the
/// condition shortlist with its column values. So runs over different
/// snapshots or options can share one context without observing each
/// other's entries (up to 64-bit hash collisions, vanishingly unlikely but
/// not impossible).
///
/// Determinism is unaffected: leaf fits and search spaces are pure functions
/// of their keys, so a warm run produces output bit-identical to a cold one.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/fnv.h"
#include "core/stop_token.h"
#include "core/transform.h"
#include "linalg/score_partials.h"
#include "parallel/sharded_cache.h"
#include "parallel/thread_pool.h"

namespace charles {

/// \brief Key of the context's cross-run leaf-fit cache.
///
/// `t_index` indexes the run's transformation-subset enumeration (the same
/// partition fitted on different T yields different models). `fingerprint`
/// identifies the run inputs that determine a fit (see the file docs), so a
/// key never matches across unrelated runs sharing one context. Within a run
/// leaves are interned to dense ids (RunState::leaves); this whole-row key
/// is only built at the context boundary — one lookup per (leaf, T) slot
/// before the sweep, one insert per fit the sweep computes.
struct LeafKey {
  uint64_t fingerprint = 0;
  size_t t_index = 0;
  std::vector<int64_t> rows;
  bool operator==(const LeafKey& other) const {
    return fingerprint == other.fingerprint && t_index == other.t_index &&
           rows == other.rows;
  }
};

/// Hash for LeafKey: FNV-1a over the rows, mixed with the other two
/// components.
struct LeafKeyHash {
  size_t operator()(const LeafKey& key) const {
    uint64_t rows_hash = kFnvOffsetBasis;
    for (int64_t r : key.rows) {
      rows_hash = (rows_hash ^ static_cast<uint64_t>(r)) * kFnvPrime;
    }
    size_t h = static_cast<size_t>(rows_hash);
    h ^= key.t_index * 0x9e3779b97f4a7c15ull;
    h ^= static_cast<size_t>(key.fingerprint * 0xc2b2ae3d27d4eb4full);
    return h;
  }
};

/// \brief One fitted (leaf, T) slot: the transformation, its exact MAE, and
/// the leaf's canonical score partials — everything row-free scoring reads,
/// and no per-row predictions.
///
/// This is both the value of the context's cross-run cache and the entry of
/// a run's fit table (Phase3Fits), so a context hit is used as is.
struct SharedLeafFit {
  /// The fitted (or no-change) transformation for the leaf.
  LinearTransform transform;
  /// Mean absolute error of the transformation on its partition.
  double partition_mae = 0.0;
  /// Canonical accuracy partials of the leaf (Σ|ŷ − y_new|, exact count, n),
  /// folded with the run's exact tolerance. The fingerprint key covers
  /// numeric_tolerance and y_new, the two inputs of that tolerance, so a
  /// cached entry can never be replayed under a different one.
  ScorePartials score;
};

/// Lock-sharded cross-run cache of leaf fits owned by an EngineContext and
/// shared by every run attached to it. May be LRU-bounded
/// (EngineContextOptions::max_cache_entries), so readers use the copy-out
/// Lookup, never held pointers.
using SharedLeafFitCache = ShardedCache<LeafKey, SharedLeafFit, LeafKeyHash>;

// The phase 1–2 products of one run that later stages read (defined in
// core/run_pipeline.h); what the context's phase cache keeps.
struct SearchSpace;

/// Cross-run cache of search spaces, keyed by the run's 64-bit search-space
/// key (see RunPipeline::Phase1Signals). Values are shared and immutable, so
/// a hit copies a handle and concurrent runs read one entry safely.
using PhaseCache = ShardedCache<uint64_t, std::shared_ptr<const SearchSpace>>;

/// \brief What a context does with a Find() arriving while
/// max_concurrent_runs are already executing.
enum class AdmissionPolicy {
  /// Block the arriving caller until a slot frees (FIFO-ish: waiters race
  /// on the condition variable). The right default for batch callers.
  kQueue,
  /// Fail fast with Status::ResourceExhausted — serving layers that would
  /// rather shed load than stack latency.
  kReject,
};

/// \brief Configuration of an EngineContext.
struct EngineContextOptions {
  /// Worker threads of the context's pool. 0 = hardware concurrency;
  /// 1 = no pool (attached engines run serially but still share the cache).
  int num_threads = 0;
  /// Lock shards of the leaf-fit cache. 0 = 4 x resolved thread count.
  int cache_shards = 0;
  /// Entry cap on the cross-run leaf-fit cache, enforced on every insert by
  /// evicting least-recently-used fits. 0 = unbounded. The budget is split
  /// across the cache's lock shards (rounding down, at least one entry per
  /// shard — see ShardedCache). Evictions never affect results — a missing
  /// fit is simply recomputed.
  int64_t max_cache_entries = 0;
  /// Admission control: Find() calls allowed to execute concurrently
  /// against this context. 0 = unbounded. The pool is shared, so admitting
  /// every caller only slices the same workers thinner; bounding admissions
  /// keeps per-run latency predictable under a request flood.
  int max_concurrent_runs = 0;
  /// What happens to calls beyond max_concurrent_runs.
  AdmissionPolicy admission = AdmissionPolicy::kQueue;
};

/// \brief Long-lived owner of the ThreadPool, leaf-fit cache and phase cache
/// shared by repeated engine runs.
///
/// Construct one per process (or per tenant) and attach engines to it:
///
/// \code
///   charles::EngineContext context;                 // spawns the pool once
///   charles::CharlesEngine engine(options, &context);
///   auto first  = engine.Find(source, target);      // cold: fits + caches
///   auto second = engine.Find(source, target);      // warm: served from cache
/// \endcode
///
/// Thread safety: the pool and caches are concurrency-safe, so multiple
/// threads may run Find() against one context simultaneously (each run
/// schedules its waves through the shared pool). ClearCaches() is the only
/// exception — it must not race with an active run.
///
/// Lifetime: the context must outlive every engine attached to it and every
/// future returned by FindAsync() on such an engine.
class EngineContext {
 public:
  explicit EngineContext(EngineContextOptions options = {});

  EngineContext(const EngineContext&) = delete;
  EngineContext& operator=(const EngineContext&) = delete;

  /// \brief Movable RAII handle for one admitted run; releasing (or
  /// destroying) it frees the slot and wakes one queued caller.
  ///
  /// A default-constructed slot holds nothing — engines without a context
  /// carry one as a harmless placeholder.
  class RunSlot {
   public:
    RunSlot() = default;
    RunSlot(RunSlot&& other) noexcept : context_(other.context_) {
      other.context_ = nullptr;
    }
    RunSlot& operator=(RunSlot&& other) noexcept {
      if (this != &other) {
        Release();
        context_ = other.context_;
        other.context_ = nullptr;
      }
      return *this;
    }
    RunSlot(const RunSlot&) = delete;
    RunSlot& operator=(const RunSlot&) = delete;
    ~RunSlot() { Release(); }

    /// Frees the slot early; idempotent.
    void Release();

   private:
    friend class EngineContext;
    explicit RunSlot(EngineContext* context) : context_(context) {}
    EngineContext* context_ = nullptr;
  };

  /// \brief Admits one run under the context's admission policy.
  ///
  /// Unbounded contexts admit immediately (the slot still tracks
  /// active_runs()). At the bound, kQueue blocks the calling thread until a
  /// slot frees — callers, not pool workers, wait, so queued admissions
  /// cannot deadlock the pool — and kReject returns
  /// Status::ResourceExhausted. A queued wait also honours `stop`:
  /// a cancelled caller leaves the queue with Status::Cancelled instead of
  /// waiting out the runs ahead of it. Engines call this at the top of
  /// Find() with the run's token; callers running engines by hand can use
  /// it to scope their own critical sections.
  Result<RunSlot> AdmitRun(const StopToken* stop = nullptr);

  /// The context's pool, spawned at construction; nullptr when the resolved
  /// thread count is 1 (attached engines then run serially).
  ThreadPool* pool() const { return pool_.get(); }

  /// The cross-run leaf-fit cache; never null.
  SharedLeafFitCache* leaf_cache() const { return leaf_cache_.get(); }

  /// Resolved worker-thread count (>= 1).
  int num_threads() const { return num_threads_; }

  /// Search spaces the phase cache keeps, least recently used evicted
  /// first: room for the trade-off explorer's three values of c over a few
  /// snapshot pairs.
  static constexpr size_t kPhaseCacheCapacity = 8;

  /// \name Diagnostics
  /// @{
  /// Number of Find() calls completed against this context.
  int64_t runs_completed() const {
    return runs_completed_.load(std::memory_order_relaxed);
  }
  /// Distinct leaf fits currently cached across all runs.
  size_t leaf_cache_entries() const { return leaf_cache_->Size(); }
  /// Cumulative shared-cache lookup hits (cross-worker plus cross-run).
  int64_t leaf_cache_hits() const { return leaf_cache_->hits(); }
  /// Cumulative shared-cache lookup misses.
  int64_t leaf_cache_misses() const { return leaf_cache_->misses(); }
  /// Cumulative fits dropped by the cache bound (LRU eviction); 0 while the
  /// cache is unbounded.
  int64_t leaf_cache_evictions() const { return leaf_cache_->evictions(); }
  /// Cumulative runs whose phases 1–2 were served from the phase cache.
  int64_t phase_cache_hits() const { return phase_cache_->hits(); }
  /// Cumulative runs that computed phases 1–2 (every context run looks).
  int64_t phase_cache_misses() const { return phase_cache_->misses(); }
  /// Search spaces currently cached (at most kPhaseCacheCapacity).
  size_t phase_cache_entries() const { return phase_cache_->Size(); }
  /// Runs executing right now (admitted, not yet released).
  int active_runs() const;
  /// Cumulative admissions that had to wait for a slot (kQueue).
  int64_t runs_queued() const {
    return runs_queued_.load(std::memory_order_relaxed);
  }
  /// Cumulative admissions refused at the bound (kReject).
  int64_t runs_rejected() const {
    return runs_rejected_.load(std::memory_order_relaxed);
  }
  /// The configured admission bound (0 = unbounded).
  int max_concurrent_runs() const { return max_concurrent_runs_; }
  /// @}

  /// Drops every cached leaf fit and search space (e.g. after a snapshot
  /// refresh made cached entries unreachable and memory matters). Must not
  /// be called while a run is in flight — runs hold pointers into the cache.
  void ClearCaches() {
    leaf_cache_->Clear();
    phase_cache_->Clear();
  }

 private:
  friend class CharlesEngine;
  friend class RunPipeline;

  /// Called by the engine at the end of each Find() against this context.
  void NoteRunCompleted() {
    runs_completed_.fetch_add(1, std::memory_order_relaxed);
  }

  /// RunSlot's release path.
  void FinishRun();

  /// The cross-run search-space cache; never null.
  PhaseCache* phase_cache() const { return phase_cache_.get(); }

  int num_threads_ = 1;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<SharedLeafFitCache> leaf_cache_;
  /// One lock shard: the cache is consulted once per run, and a single
  /// shard keeps the LRU bound exact.
  std::unique_ptr<PhaseCache> phase_cache_ =
      std::make_unique<PhaseCache>(/*num_shards=*/1, kPhaseCacheCapacity);
  std::atomic<int64_t> runs_completed_{0};

  int max_concurrent_runs_ = 0;
  AdmissionPolicy admission_ = AdmissionPolicy::kQueue;
  mutable std::mutex admission_mu_;
  std::condition_variable admission_cv_;
  int active_runs_ = 0;  ///< guarded by admission_mu_
  std::atomic<int64_t> runs_queued_{0};
  std::atomic<int64_t> runs_rejected_{0};
};

inline void EngineContext::RunSlot::Release() {
  if (context_ != nullptr) {
    context_->FinishRun();
    context_ = nullptr;
  }
}

}  // namespace charles

#endif  // CHARLES_CORE_ENGINE_CONTEXT_H_
