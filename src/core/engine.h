#ifndef CHARLES_CORE_ENGINE_H_
#define CHARLES_CORE_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "linalg/score_partials.h"
#include "core/engine_context.h"
#include "core/options.h"
#include "core/partition_finder.h"
#include "core/setup_assistant.h"
#include "core/stop_token.h"
#include "core/summary.h"
#include "diff/diff.h"
#include "distributed/remote_counters.h"
#include "table/table.h"

namespace charles {

namespace obs {
class TraceRecorder;
}  // namespace obs

class Scorer;
class SufficientStats;

/// \brief Output of one engine run: ranked summaries plus search diagnostics.
struct SummaryList {
  /// Top-N summaries, highest score first.
  std::vector<ChangeSummary> summaries;

  /// Run id: the run fingerprint as 16 lowercase hex digits. Every run has
  /// one (fingerprinting no longer requires an EngineContext); it tags
  /// coordinator and worker log lines and doubles as the trace id, so one
  /// id correlates logs, traces, and diagnostics across processes.
  std::string run_id;

  /// The run's trace (CharlesOptions::trace on; null otherwise). Holds
  /// every stage/dispatch/merge span plus imported worker spans; export
  /// with ToChromeTraceJson() (src/obs/trace.h, docs/observability.md).
  std::shared_ptr<obs::TraceRecorder> trace;

  /// The attribute shortlists the run used (assistant output or overrides).
  SetupResult setup;

  /// \name Search-space diagnostics.
  /// @{
  int64_t condition_subsets = 0;    ///< |{C ⊆ A_cond : |C| ≤ c}|
  int64_t transform_subsets = 0;    ///< |{T ⊆ A_tran : |T| ≤ t}| (incl. ∅)
  int64_t labelings = 0;            ///< distinct clusterings pooled
  int64_t partitions = 0;           ///< distinct induced partitionings
  int64_t candidates_evaluated = 0; ///< summaries built and scored
  int64_t candidates_deduped = 0;   ///< dropped as structural duplicates
  int threads_used = 1;             ///< worker threads the run executed on
  /// Always "scalar": the block folds have one implementation. Kept because
  /// the repo benchmark reads it.
  std::string kernel_used = "scalar";
  /// Leaf fits performed: the distinct (leaf, T) slots of the run's fit
  /// table that the context cache did not serve. Deterministic — each slot
  /// is filled exactly once, on any thread count or shard count.
  int64_t leaf_fits_computed = 0;
  /// Leaf visits served without fitting (a slot filled earlier in the run
  /// or by the context cache). Deterministic like leaf_fits_computed.
  int64_t leaf_fits_reused = 0;
  /// Fits dropped from the attached EngineContext's leaf-fit cache by its
  /// LRU bound (EngineContextOptions::max_cache_entries), cumulative across
  /// the context's runs as of the end of this run. 0 without a context or
  /// bound.
  int64_t leaf_fit_evictions = 0;
  /// True when phases 1–2 were served from the attached EngineContext's
  /// phase cache (an earlier run computed the same search space). Depends on
  /// what the context has cached, not on the inputs; always false without a
  /// context.
  bool phase_cache_hit = false;
  /// \name Shard execution: phase 3's one kLeafMoments round
  /// (CharlesOptions::num_shards, shard_backend). Zero when no changed leaf
  /// needed moments (e.g. a warm repeat run), except
  /// shard_moment_leaves_elided. See docs/distributed.md.
  /// @{
  int shards_used = 0;               ///< row-range shards of the executed plan
  int64_t shard_rows_scanned = 0;    ///< Σ rows scanned by backends
  int64_t shard_blocks_merged = 0;   ///< per-block partials folded centrally
  double shard_seconds = 0.0;        ///< coordinator wall time (fan-out + merge)
  /// ShardTask executions dispatched to backends (one per shard).
  int64_t shard_tasks_executed = 0;
  /// Unique partition leaves the kLeafMoments round swept: the changed
  /// leaves with an empty fit slot (the all-rows leaf reuses phase 1's
  /// moments and is never swept).
  int64_t shard_moment_leaves_swept = 0;
  /// Unique partition leaves whose every transformation subset's fit the
  /// attached EngineContext served, so no moments were needed for them: a
  /// repeat run on a warm context sweeps none
  /// (see docs/distributed.md#warm-cache-elision).
  int64_t shard_moment_leaves_elided = 0;
  /// \name Row-free scoring (PR 10). A run on the partials path scores every
  /// candidate by merging per-leaf ScorePartials in leaf order; the counters
  /// below prove (or disprove) that no run-wide ŷ vector was ever built.
  /// @{
  /// Candidates scored row-free from merged per-leaf score partials.
  int64_t score_partials_candidates = 0;
  /// Candidates scored by materializing a run-wide ŷ. Always zero: engine
  /// runs score every candidate row-free (only the public BuildSummary
  /// builds ŷ, and it reports no SummaryList). Kept because the
  /// bench_shard_scaling tripwire reads it.
  int64_t score_yhat_materializations = 0;
  /// Per-leaf score folds performed; fits served by a warm cache don't
  /// count. Deterministic: at most one per computed fit.
  int64_t score_leaf_folds = 0;
  /// @}
  /// \name Remote backend (shard_backend = kRemote; empty/zero otherwise).
  /// @{
  /// Shard tasks dispatched to the worker fleet.
  int64_t remote_tasks_dispatched = 0;
  /// Transport-failure reassignments: a worker died or timed out mid-shard
  /// and the task was retried on another worker. Nonzero retries never
  /// change output — the kernel is deterministic and the merge block-ordered.
  int64_t remote_task_retries = 0;
  /// ShardInput bundles installed, summed over workers (stays at epochs ×
  /// workers-used, however many tasks ran).
  int64_t remote_input_installs = 0;
  /// Per-worker dispatch/health counters at the end of the run.
  std::vector<RemoteWorkerCounters> remote_workers;
  /// @}
  /// @}
  double elapsed_seconds = 0.0;
  double clustering_seconds = 0.0;  ///< phase 1: exact 1-D change-signal k-means
  double induction_seconds = 0.0;   ///< phase 2: condition trees
  double fitting_seconds = 0.0;     ///< phase 3: transforms + scoring
  /// @}

  /// Rendering of the ranked list (one block per summary).
  std::string ToString() const;

  /// Stable machine-readable diagnostics: the versioned RunDiagnostics
  /// schema (src/obs/diagnostics.h) rendered as one JSON object. Clients
  /// parse this instead of scraping C++ struct fields; additions are
  /// backward compatible and removals/renames bump `schema_version`
  /// (docs/observability.md#json-schema-versioning).
  std::string ToJson() const;
};

/// \brief One streamed snapshot of the phase-3 search, emitted after a
/// (partition, T) shard completes.
struct SummaryStreamUpdate {
  /// Current best-so-far ranking (at most CharlesOptions::top_n entries),
  /// ordered exactly as the final list orders summaries. Which summaries
  /// appear mid-run depends on scheduling; the \em last update's list equals
  /// the final ranked list.
  std::vector<ChangeSummary> provisional;
  /// (partition, T) shards finished so far, including this one.
  int64_t shards_completed = 0;
  /// Total (partition, T) shards of the run's phase 3.
  int64_t shards_total = 0;
  /// Seconds since the run started.
  double elapsed_seconds = 0.0;
  /// True on the final update of a run cancelled via its StopToken: the
  /// search stopped early, `provisional` is the best ranking known at the
  /// stop, and no further updates will arrive (the run resolves with
  /// Status::Cancelled). Always false on ordinary updates.
  bool cancelled = false;
};

/// \brief Callback channel receiving ranked partial results during a run.
///
/// Pass one to CharlesEngine::Find or FindAsync to observe the search as it
/// happens — a human-in-the-loop UI can show top-ranked summaries early and
/// let the user stop reading long before the sweep finishes. An update is
/// emitted whenever a completed shard changed the provisional set (shards
/// that only rediscover known summaries just advance shards_completed), and
/// always for the final shard, so every run emits at least one update and
/// the last update carries the final ranking.
///
/// Delivery is **buffered**: producers enqueue updates and return
/// immediately, and a dedicated drain thread owned by the stream invokes the
/// callback — so a slow consumer can never stall the phase-3 sweep (workers
/// used to queue behind the run's merge lock while the callback executed).
/// The callback runs on the drain thread, is never invoked concurrently
/// (even when one stream is shared by concurrent runs), and, within one run,
/// observes strictly increasing shards_completed in enqueue order. A run
/// flushes its stream before resolving, so every update — including the
/// final or cancelled one — is delivered before Find()/FindAsync() returns
/// its result. The callback may do I/O, but must not call back into the
/// emitting engine. Streaming never changes the run's result: the final
/// ranked list stays bit-identical to a run without a stream, at any thread
/// count.
class SummaryStream {
 public:
  using Callback = std::function<void(const SummaryStreamUpdate&)>;

  explicit SummaryStream(Callback callback)
      : callback_(std::move(callback)), drain_([this] { DrainLoop(); }) {}

  SummaryStream(const SummaryStream&) = delete;
  SummaryStream& operator=(const SummaryStream&) = delete;

  /// Delivers every still-queued update, then joins the drain thread.
  ~SummaryStream() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    queued_cv_.notify_all();
    drain_.join();
  }

  /// Updates delivered so far (across every run this stream was passed to).
  int64_t updates_emitted() const {
    return updates_.load(std::memory_order_relaxed);
  }

 private:
  friend class CharlesEngine;
  friend class RunPipeline;
  friend struct RunState;

  /// Enqueues one update for the drain thread; never blocks on the callback.
  void Emit(const SummaryStreamUpdate& update) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(update);
      ++enqueued_;
    }
    queued_cv_.notify_one();
  }

  /// Blocks until every update enqueued *before this call* has been
  /// delivered. Called by the pipeline driver on every exit path, so run
  /// results never race their own stream updates. Scoped by enqueue
  /// position, not queue emptiness: on a stream shared by concurrent runs,
  /// a finishing run never waits out updates other runs enqueue later.
  void Flush() {
    std::unique_lock<std::mutex> lock(mu_);
    const int64_t target = enqueued_;
    drained_cv_.wait(lock, [this, target] { return delivered_ >= target; });
  }

  void DrainLoop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      queued_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      SummaryStreamUpdate update = std::move(queue_.front());
      queue_.pop_front();
      lock.unlock();
      if (callback_) callback_(update);
      updates_.fetch_add(1, std::memory_order_relaxed);
      lock.lock();
      ++delivered_;
      drained_cv_.notify_all();
    }
  }

  Callback callback_;
  std::mutex mu_;
  std::condition_variable queued_cv_;
  std::condition_variable drained_cv_;
  std::deque<SummaryStreamUpdate> queue_;
  bool stopping_ = false;
  int64_t enqueued_ = 0;   ///< updates ever queued; guarded by mu_
  int64_t delivered_ = 0;  ///< updates whose callback completed; guarded by mu_
  std::atomic<int64_t> updates_{0};
  std::thread drain_;
};

/// \brief The ChARLES diff discovery engine (paper, Figure 3 right half).
///
/// Orchestrates the full pipeline: snapshot diff → attribute shortlists →
/// (C, T) subset enumeration → partition discovery → transformation
/// discovery (with normality snapping) → scoring → dedup → ranking.
///
/// An engine is stateless across runs; all state lives in the options (and
/// optionally an attached EngineContext), so one engine may serve concurrent
/// Find() calls from multiple threads.
class CharlesEngine {
 public:
  /// An engine owning its execution resources: each Find() spawns (and
  /// joins) a private pool of CharlesOptions::num_threads workers.
  explicit CharlesEngine(CharlesOptions options) : options_(std::move(options)) {}

  /// \brief An engine attached to a long-lived EngineContext.
  ///
  /// Every Find() schedules on the context's pool and reuses its cross-run
  /// leaf-fit cache, so repeated queries skip thread spawn and re-fitting.
  /// The context's thread count supersedes CharlesOptions::num_threads (a
  /// null context behaves exactly like the single-argument constructor).
  /// The context must outlive the engine.
  CharlesEngine(CharlesOptions options, EngineContext* context)
      : options_(std::move(options)), context_(context) {}

  const CharlesOptions& options() const { return options_; }

  /// The attached context, or nullptr for a self-contained engine.
  EngineContext* context() const { return context_; }

  /// \brief Runs the pipeline over two snapshots with identical schemas and
  /// entity sets (paper assumptions; violations yield InvalidArgument).
  ///
  /// When `stream` is non-null, ranked partial results are emitted as
  /// phase-3 shards complete (see SummaryStream); the returned list is
  /// unaffected by streaming. When `stop` is non-null the search is
  /// cancellable (see StopToken): on a stop, the best ranking known so far
  /// is emitted on `stream` with `cancelled` set and the call resolves with
  /// Status::Cancelled.
  Result<SummaryList> Find(const Table& source, const Table& target,
                           SummaryStream* stream = nullptr,
                           const StopToken* stop = nullptr) const;

  /// \brief Non-blocking Find(): runs the search on a dedicated thread and
  /// resolves the future with its result.
  ///
  /// Combine with a SummaryStream to consume top-ranked summaries while the
  /// sweep is still running, and a StopToken to abandon it early (the
  /// future then resolves with Status::Cancelled). The engine, both tables,
  /// the stream, the token, and any attached context must stay alive until
  /// the future resolves.
  std::future<Result<SummaryList>> FindAsync(const Table& source,
                                             const Table& target,
                                             SummaryStream* stream = nullptr,
                                             const StopToken* stop = nullptr) const;

  /// Rvalue snapshots are rejected at compile time: the async thread reads
  /// the tables by reference, so a temporary would dangle before it resolves.
  std::future<Result<SummaryList>> FindAsync(Table&& source, const Table& target,
                                             SummaryStream* stream = nullptr,
                                             const StopToken* stop = nullptr) const =
      delete;
  std::future<Result<SummaryList>> FindAsync(const Table& source, Table&& target,
                                             SummaryStream* stream = nullptr,
                                             const StopToken* stop = nullptr) const =
      delete;

  /// Legacy name for Find() without streaming.
  Result<SummaryList> Run(const Table& source, const Table& target) const {
    return Find(source, target);
  }

  /// \brief Builds and scores one summary for a fixed partitioning.
  ///
  /// Exposed for tests, baselines, and ablations: fits a transformation on
  /// every leaf by row-level QR (detecting no-change partitions), snaps
  /// constants, assembles predictions, and scores them with a Scorer built
  /// for this call. `y_old`/`y_new` align with source rows. Engine runs do
  /// not use this entry: phase 3 fits each distinct (leaf, T) once into the
  /// run's fit table and scores row-free (see RunPipeline::Phase3Fits).
  Result<ChangeSummary> BuildSummary(
      const Table& source, const std::vector<double>& y_old,
      const std::vector<double>& y_new, const PartitionCandidate& candidate,
      const std::vector<std::string>& transform_attrs,
      const std::vector<std::string>& condition_attrs) const;

 private:
  /// The staged pipeline Find() delegates to; stages call FitLeaf and the
  /// fit-table BuildSummary and read the engine's options/context (see
  /// core/run_pipeline.h).
  friend class RunPipeline;

  /// \brief What phase 3 knows about one (leaf, T) slot before fitting it.
  ///
  /// Every field is computed before the sweep (RunPipeline::Phase3Fits):
  /// `max_abs_delta` by the slot-resolve scan, and `moments` by phase 1 (the
  /// all-rows leaf) or the kLeafMoments round. All pointers must outlive the
  /// FitLeaf call.
  struct LeafStatsWorkspace {
    /// The run's transformation columns (shortlist order = moments order).
    const ColumnCache* columns = nullptr;
    /// The leaf's moments over the full shortlist; null for an unchanged
    /// leaf, whose fit never reads them.
    const SufficientStats* moments = nullptr;
    /// The current T's indices into the shortlist.
    const std::vector<int>* t_subset = nullptr;
    /// max |y_new − y_old| over the leaf; decides no-change.
    double max_abs_delta = 0.0;
    /// Block size of the canonical folds (CharlesOptions::stats_block_rows).
    int64_t block_rows = 0;
    /// The run Scorer's exactness band (Scorer::exact_tolerance()).
    double score_tolerance = 0.0;
    /// Incremented once per per-leaf score fold.
    int64_t* score_folds = nullptr;
  };

  /// \brief Fits one leaf's transformation.
  ///
  /// With a workspace (engine runs): no-change from `max_abs_delta`, OLS
  /// solved from the leaf moments (row-level QR when the system is
  /// ill-conditioned), normality snapping against the exact canonical L1
  /// baseline, and the leaf's canonical ScorePartials. Without one (the
  /// public BuildSummary): a serial no-change scan, row-level QR, and a
  /// serial MAE. `predictions` (optional) receives ŷ over the leaf's rows.
  Result<SharedLeafFit> FitLeaf(const Table& source, const std::vector<double>& y_old,
                                const std::vector<double>& y_new, const RowSet& rows,
                                const std::vector<std::string>& transform_attrs,
                                const LeafStatsWorkspace* ws,
                                std::vector<double>* predictions) const;

  /// \brief Assembles and scores one summary from fit-table slots, one per
  /// candidate leaf in leaf order: the per-leaf ScorePartials merge in leaf
  /// order, so no run-wide ŷ is ever built.
  ChangeSummary BuildSummary(const PartitionCandidate& candidate,
                             const std::vector<const SharedLeafFit*>& fits,
                             const std::vector<std::string>& transform_attrs,
                             const std::vector<std::string>& condition_attrs,
                             const Scorer& scorer) const;

  CharlesOptions options_;
  EngineContext* context_ = nullptr;
};

/// \brief One-call convenience API: SummarizeChanges(Ds, Dt, options).
Result<SummaryList> SummarizeChanges(const Table& source, const Table& target,
                                     const CharlesOptions& options);

/// Same, attached to a long-lived context (serving / repeated queries).
Result<SummaryList> SummarizeChanges(const Table& source, const Table& target,
                                     const CharlesOptions& options,
                                     EngineContext* context);

}  // namespace charles

#endif  // CHARLES_CORE_ENGINE_H_
