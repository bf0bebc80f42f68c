#ifndef CHARLES_CORE_RUN_PIPELINE_H_
#define CHARLES_CORE_RUN_PIPELINE_H_

/// \file
/// \brief The staged run pipeline behind CharlesEngine::Find.
///
/// Find() used to be one ~600-line monolith. It is now an explicit pipeline
/// of named stages over a shared RunState blackboard:
///
/// ```
///   DiffAlign ─► Setup ─► Phase1Signals ─► Phase2Trees ─► Phase3Fits ─► RankStream
/// ```
///
///  - **DiffAlign** — snapshot diff, row alignment, target extraction;
///  - **Setup** — attribute shortlists (assistant or overrides) and the
///    (C, T) subset enumeration;
///  - **Phase1Signals** — change-signal clustering: column cache, run id,
///    the phase-cache lookup (runs with a context), then — on a miss — the
///    run's shortlist moments (one central block fold), per-T clusterings,
///    pooled labelings;
///  - **Phase2Trees** — condition-tree induction, partition dedup and leaf
///    interning, or the cached partitions on a phase-cache hit; a miss with
///    a context inserts its search space afterwards;
///  - **Phase3Fits** — one fit table slot per distinct (leaf, T): resolve
///    the slots the context cache holds, compute the moments of every
///    changed leaf with an empty slot in one kLeafMoments round on the
///    run's shard backend, then the (partition, T) sweep, which fills each
///    empty slot once on first demand;
///  - **RankStream** — deterministic best-by-signature reduction, ranking,
///    truncation, and diagnostics fold.
///
/// The *driver* (RunPipeline::Run) owns everything the stages used to
/// re-implement per call site: admission control, pool spawn/attach, stage
/// timing, cancellation checks between stages, the final cancelled stream
/// update, and the stream flush that keeps buffered SummaryStream delivery
/// ordered before the run resolves. Each stage is a small function of
/// RunState, callable on its own from tests (tests/run_pipeline_test.cc
/// drives stages individually and checks parity with the one-call engine).
///
/// Determinism is unchanged by the decomposition: stages communicate only
/// through RunState, in a fixed order, and every intra-stage reduction still
/// replays input order (docs/architecture.md#determinism-contract).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/engine.h"
#include "core/engine_context.h"
#include "core/partition_finder.h"
#include "core/scoring.h"
#include "core/setup_assistant.h"
#include "core/stop_token.h"
#include "diff/diff.h"
#include "distributed/backend.h"
#include "linalg/suffstats.h"
#include "obs/trace.h"
#include "table/table.h"

namespace charles {

class ThreadPool;

/// \brief The shared blackboard one engine run's stages read and write.
///
/// Constructed by the driver, populated stage by stage; every field below
/// the "stage products" line is owned by exactly one producing stage and
/// read-only afterwards. Not movable (the stream-merge mutex pins it); lives
/// on the driver's stack for exactly one run.
struct RunState {
  RunState(const CharlesEngine& engine, const Table& source, const Table& target,
           SummaryStream* stream, const StopToken* stop)
      : engine(engine),
        options(engine.options()),
        context(engine.context()),
        source(source),
        target(target),
        stream(stream),
        stop(stop),
        start_time(std::chrono::steady_clock::now()) {}

  RunState(const RunState&) = delete;
  RunState& operator=(const RunState&) = delete;

  /// \name Immutable run context.
  /// @{
  const CharlesEngine& engine;
  const CharlesOptions& options;
  EngineContext* context = nullptr;
  const Table& source;
  const Table& target;
  SummaryStream* stream = nullptr;
  const StopToken* stop = nullptr;
  std::chrono::steady_clock::time_point start_time;
  /// @}

  /// \name Driver plumbing (admission, execution resources).
  /// @{
  EngineContext::RunSlot run_slot;
  ThreadPool* pool = nullptr;              ///< context pool or owned_pool
  std::unique_ptr<ThreadPool> owned_pool;  ///< per-run pool when no context
  int num_threads = 1;
  /// The run's trace recorder when CharlesOptions::trace is on (created by
  /// the driver before the first stage, shared into result.trace); null
  /// otherwise — every Span constructed from it is then inert.
  std::shared_ptr<obs::TraceRecorder> recorder;
  /// @}

  /// \name DiffAlign products.
  /// @{
  SnapshotDiff diff;
  Table matched_view;                  ///< storage when alignment reorders
  const Table* analysis = nullptr;     ///< the aligned analysis table
  std::vector<double> y_old;
  std::vector<double> y_new;
  /// @}

  /// \name Setup products.
  /// @{
  std::vector<std::string> cond_names;
  std::vector<std::string> tran_names;
  std::vector<int> cond_indices;             ///< schema indices of cond_names
  std::vector<std::vector<int>> c_subsets;   ///< C ⊆ A_cond, |C| ≤ c
  std::vector<std::vector<int>> t_subsets;   ///< T ⊆ A_tran, |T| ≤ t (∅ first)
  /// @}

  /// \name Phase1Signals products.
  /// @{
  ColumnCache tran_columns;
  std::shared_ptr<const SufficientStats> shortlist_stats;
  uint64_t fingerprint = 0;  ///< cross-run cache key; 0 without a context
  /// The run id: the fingerprint, computed unconditionally (unlike
  /// `fingerprint`, which stays 0 without a context so nothing cache-keys
  /// on it). Tags log lines, rides the execute wire to workers, doubles as
  /// the trace id, and surfaces as SummaryList::run_id.
  uint64_t run_id = 0;
  /// Pooled labelings; left empty on a phase-cache hit (only their count,
  /// result.labelings, is cached).
  std::vector<std::vector<int>> labelings;
  std::vector<std::vector<std::string>> t_attr_names;  ///< names per T-subset
  /// Key of the context's phase cache: the run id mixed with everything
  /// else phases 1–2 read. 0 without a context.
  uint64_t search_space_key = 0;
  /// The cached search space on a phase-cache hit (Phase2Trees installs its
  /// partitions); null on a miss and without a context.
  std::shared_ptr<const SearchSpace> search_space;
  /// @}

  /// \name Phase2Trees products.
  /// @{
  struct PartitionEntry {
    PartitionCandidate candidate;
    std::vector<std::string> condition_attrs;
    /// Interned id of each candidate leaf (leaf order): leaves with equal
    /// row sets share an id, whichever conditions describe them.
    std::vector<int64_t> leaf_ids;
  };
  std::vector<PartitionEntry> partitions;
  /// The distinct leaves by id: each id's rows, from its first occurrence
  /// in partition order. Phase 3 keys everything by these ids.
  std::vector<const RowSet*> leaves;
  /// @}

  /// \name Phase3Fits products.
  /// @{
  struct WorkItemOutput {
    std::string signature;
    ChangeSummary summary;
    bool ok = false;
  };
  std::vector<WorkItemOutput> outputs;  ///< one per (partition, T), item order
  int64_t work_items = 0;               ///< |partitions| × |T-subsets|
  /// The one run-level Scorer: constructed once at the top of Phase3Fits
  /// (the single y_old/y_new copy of the whole sweep) and shared by every
  /// work item — BuildSummary scores row-free against it from merged
  /// per-leaf ScorePartials, folded in the band of its exact_tolerance().
  std::unique_ptr<Scorer> scorer;
  /// @}

  /// \name Streaming merge (incremental provisional top-N).
  /// @{
  struct StreamMerge {
    std::mutex mu;
    /// Sorted, deduplicated by signature, at most top_n entries.
    std::vector<std::pair<std::string, ChangeSummary>> top;
    /// Work items finished. Atomic so streamless runs can count without the
    /// lock; streamed runs increment under `mu` so emissions observe
    /// strictly increasing values.
    std::atomic<int64_t> completed{0};
  };
  StreamMerge stream_merge;
  bool cancel_emitted = false;  ///< the one final cancelled update was sent
  /// @}

  /// The run's shard backend, constructed lazily by phase 3's kLeafMoments
  /// round (see SelectShardBackend). Null when no round ran.
  std::unique_ptr<ShardBackend> shard_backend;

  /// The run's accumulating result (diagnostics are filled as stages run).
  SummaryList result;

  /// \name Shared helpers (the boilerplate Find() used to repeat).
  /// @{
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_time)
        .count();
  }
  bool StopRequested() const {
    return stop != nullptr && stop->stop_requested();
  }
  /// Emits the run's single final cancelled stream update (carrying the
  /// provisional ranking and progress known so far — empty before phase 3)
  /// and returns the Status::Cancelled every caller propagates. Idempotent
  /// on the emission.
  Status Cancelled(const std::string& where);
  /// @}
};

/// \brief The phase 1–2 products that later stages and diagnostics read, as
/// the context's phase cache keeps them: everything Phase3Fits and
/// RankStream need from phases 1–2, but not the labelings themselves.
struct SearchSpace {
  std::vector<std::vector<std::string>> t_attr_names;
  std::vector<RunState::PartitionEntry> partitions;  ///< capped, leaf ids set
  std::shared_ptr<const SufficientStats> shortlist_stats;
  int64_t labelings = 0;  ///< SummaryList::labelings of the computing run
};

/// \brief The staged driver CharlesEngine::Find delegates to.
class RunPipeline {
 public:
  /// Runs every stage in order over a fresh RunState: validation, admission,
  /// pool setup, per-stage timing + cancellation, stream flush. The one
  /// entry point production code uses.
  static Result<SummaryList> Run(const CharlesEngine& engine, const Table& source,
                                 const Table& target, SummaryStream* stream,
                                 const StopToken* stop);

  /// \name Stages, in pipeline order.
  /// Exposed individually so tests can drive the pipeline stage by stage
  /// and inspect the intermediate RunState. Each requires every earlier
  /// stage to have run on the same state.
  /// @{
  static Status DiffAlign(RunState& state);
  static Status Setup(RunState& state);
  static Status Phase1Signals(RunState& state);
  static Status Phase2Trees(RunState& state);
  static Status Phase3Fits(RunState& state);
  static Status RankStream(RunState& state);
  /// @}

  /// One named stage of the pipeline table.
  struct StageSpec {
    const char* name;
    Status (*fn)(RunState&);
    /// Which SummaryList timing field the stage's wall time lands in
    /// (nullptr: counted only in elapsed_seconds).
    double SummaryList::*timing;
  };

  /// The pipeline table, in execution order. `*count` receives the stage
  /// count.
  static const StageSpec* Stages(size_t* count);
};

}  // namespace charles

#endif  // CHARLES_CORE_RUN_PIPELINE_H_
