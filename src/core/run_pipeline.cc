#include "core/run_pipeline.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <set>

#include "common/combinatorics.h"
#include "common/fnv.h"
#include "common/string_util.h"
#include "distributed/coordinator.h"
#include "distributed/in_process_backend.h"
#include "distributed/remote_backend.h"
#include "distributed/shard_planner.h"
#include "obs/metrics.h"
#include "parallel/parallel.h"

namespace charles {

namespace {

/// True if the summary's transformations read the target's own old value —
/// the natural "update semantics" phrasing (new_bonus = f(old_bonus, ...)).
bool UsesOldTarget(const ChangeSummary& summary) {
  const auto& attrs = summary.transform_attributes();
  return std::find(attrs.begin(), attrs.end(), summary.target_attribute()) !=
         attrs.end();
}

/// \brief Hash of everything a cached leaf fit depends on beyond its LeafKey.
///
/// A leaf fit is a pure function of (transform columns at the leaf's rows,
/// y_old, y_new at those rows, the T-subset enumeration mapping t_index to
/// attribute names, the target attribute, the numeric tolerance, and the
/// normality options). The fingerprint hashes all of those run-wide, so a
/// long-lived EngineContext cache can serve fits across runs: runs whose
/// inputs differ get different fingerprints (up to 64-bit FNV-1a collisions,
/// vanishingly unlikely but not impossible) and therefore never observe each
/// other's fits when sharing one cache.
uint64_t ComputeRunFingerprint(const CharlesOptions& options,
                               const std::vector<std::string>& tran_names,
                               const ColumnCache& tran_columns,
                               const std::vector<double>& y_old,
                               const std::vector<double>& y_new) {
  uint64_t h = kFnvOffsetBasis;
  h = FnvMixString(h, options.target_attribute);
  const double knobs[] = {options.numeric_tolerance,
                          options.normality.enable_snapping ? 1.0 : 0.0,
                          options.normality.max_relative_coefficient_shift,
                          options.normality.max_relative_accuracy_loss,
                          options.normality.exactness_tolerance,
                          static_cast<double>(options.max_transform_attrs),
                          // The block size picks the evaluation order of
                          // every canonical fold, so fits at different block
                          // sizes differ at the ~1e-12 level.
                          static_cast<double>(options.stats_block_rows)};
  h = FnvMixBytes(h, knobs, sizeof(knobs));
  for (const std::string& name : tran_names) {
    h = FnvMixString(h, name);
    const std::vector<double>* values = tran_columns.Find(name);
    if (values != nullptr) h = FnvMixDoubles(h, *values);
  }
  h = FnvMixDoubles(h, y_old);
  h = FnvMixDoubles(h, y_new);
  return h;
}

/// \brief Key of the context's phase cache: a hash of everything phases 1–2
/// read.
///
/// The run id already covers the target, the tolerance and normality knobs,
/// max_transform_attrs, the block size, the transformation
/// shortlist with its values, and y_old/y_new. Mixed in here: the cluster
/// budget max_clusters, the condition shortlist names with their columns in
/// analysis-row order, and the tree and partition caps.
uint64_t ComputeSearchSpaceKey(const RunState& state) {
  const CharlesOptions& options = state.options;
  uint64_t h = FnvMixBytes(kFnvOffsetBasis, &state.run_id, sizeof(state.run_id));
  const int64_t knobs[] = {options.max_clusters,
                           options.max_condition_attrs,
                           options.tree_max_depth,
                           options.min_partition_size,
                           options.max_partitions};
  h = FnvMixBytes(h, knobs, sizeof(knobs));
  for (size_t i = 0; i < state.cond_names.size(); ++i) {
    h = FnvMixString(h, state.cond_names[i]);
    h = state.analysis->column(state.cond_indices[i]).HashInto(h);
  }
  return h;
}

/// The run's shard backend (CharlesOptions::shard_backend), constructed on
/// first use and owned by the RunState. The in-process backend is stateless;
/// the remote backend caches worker connections and the installed-input
/// epoch.
Result<ShardBackend*> SelectShardBackend(RunState& state) {
  if (state.shard_backend == nullptr) {
    const CharlesOptions& options = state.options;
    switch (options.shard_backend) {
      case ShardBackendKind::kRemote: {
        RemoteBackendOptions remote;
        remote.endpoints = options.remote_workers;
        remote.connect_timeout_ms = options.remote_connect_timeout_ms;
        remote.task_timeout_ms = options.remote_task_timeout_ms;
        remote.max_task_retries = options.remote_max_task_retries;
        remote.retry_backoff_ms = options.remote_retry_backoff_ms;
        CHARLES_ASSIGN_OR_RETURN(state.shard_backend,
                                 RemoteBackend::Create(std::move(remote)));
        break;
      }
      case ShardBackendKind::kInProcess:
        state.shard_backend = std::make_unique<InProcessBackend>();
        break;
    }
  }
  return state.shard_backend.get();
}

/// Copies the remote backend's dispatch counters into the run result; no-op
/// for the in-process backend.
void FoldRemoteDiagnostics(RunState& state) {
  auto* remote = dynamic_cast<RemoteBackend*>(state.shard_backend.get());
  if (remote == nullptr) return;
  RemoteBackendDiagnostics diagnostics = remote->Diagnostics();
  state.result.remote_tasks_dispatched = diagnostics.tasks_dispatched;
  state.result.remote_task_retries = diagnostics.task_retries;
  state.result.remote_input_installs = diagnostics.input_installs;
  state.result.remote_workers = std::move(diagnostics.workers);
}

/// Copies the coordinator round's execution counters into the run result.
void FoldRoundDiagnostics(const CoordinatorTaskResult& merged,
                          const ShardPlan& plan, SummaryList* result) {
  result->shards_used = static_cast<int>(plan.num_shards());
  result->shard_tasks_executed = merged.shards_executed;
  result->shard_rows_scanned = merged.rows_scanned;
  result->shard_blocks_merged = merged.blocks_merged;
  result->shard_seconds = merged.elapsed_seconds;
}

/// The InvalidArgument for a non-finite cell the run reads: `what` (the
/// column's role and name), its value, and where it is — snapshot, row and
/// key — followed by the rule it breaks. `pair` is the cell's analysis row.
Status NonFiniteCell(const RunState& state, const std::string& what, double value,
                     bool in_source, size_t pair, const std::string& rule) {
  const SnapshotDiff::AlignedPair& aligned = state.diff.pairs()[pair];
  const Table& table = in_source ? state.source : state.target;
  const int64_t row = in_source ? aligned.source_row : aligned.target_row;
  std::string key;
  for (const std::string& column : state.options.key_columns) {
    Result<int> index = table.schema().FieldIndex(column);
    if (!index.ok()) continue;
    if (!key.empty()) key += ", ";
    key += column + "=" + table.GetValue(row, *index).ToString();
  }
  return Status::InvalidArgument(what + " is " + FormatDouble(value) + " in the " +
                                 (in_source ? "source" : "target") +
                                 " snapshot at row " + std::to_string(row) +
                                 " (key " + key + "); " + rule);
}

/// A NaN or infinite target value poisons every fit and score it touches,
/// and the run would end OK with nothing ranked. Name the first such cell
/// instead, in analysis-row order.
Status CheckFiniteTarget(const RunState& state) {
  for (size_t i = 0; i < state.y_old.size(); ++i) {
    const bool old_bad = !std::isfinite(state.y_old[i]);
    if (!old_bad && std::isfinite(state.y_new[i])) continue;
    return NonFiniteCell(
        state, "target attribute '" + state.options.target_attribute + "'",
        old_bad ? state.y_old[i] : state.y_new[i], old_bad, i,
        "the target must be finite in both snapshots");
  }
  return Status::OK();
}

/// The same contract for the shortlisted columns the search reads from the
/// analysis (source) rows: numeric condition attributes split the trees, and
/// transformation attributes feed every fit.
Status CheckFiniteShortlist(const RunState& state) {
  const Table& analysis = *state.analysis;
  auto check = [&](const std::string& role, const std::string& name) -> Status {
    CHARLES_ASSIGN_OR_RETURN(int index, analysis.schema().FieldIndex(name));
    const int64_t row = analysis.column(index).FirstNonFinite();
    if (row < 0) return Status::OK();
    return NonFiniteCell(state, role + " '" + name + "'",
                         analysis.GetValue(row, index).dbl(), /*in_source=*/true,
                         static_cast<size_t>(row),
                         "shortlisted columns must be finite");
  };
  for (const std::string& name : state.cond_names) {
    CHARLES_RETURN_NOT_OK(check("condition attribute", name));
  }
  for (const std::string& name : state.tran_names) {
    CHARLES_RETURN_NOT_OK(check("transformation attribute", name));
  }
  return Status::OK();
}

/// Finite cells can still overflow a sum of squares (two ±1e308 values do),
/// and every fit would then solve on inf. The all-rows moments bound every
/// leaf's, so checking them once covers the whole search.
Status CheckFiniteMoments(const RunState& state) {
  const int64_t column = state.shortlist_stats->FirstNonFiniteColumn();
  if (column < 0) return Status::OK();
  const bool target = column == static_cast<int64_t>(state.tran_names.size());
  const std::string what =
      target ? "target attribute '" + state.options.target_attribute + "'"
             : "transformation attribute '" +
                   state.tran_names[static_cast<size_t>(column)] + "'";
  return Status::InvalidArgument(
      what + " overflows: the sum of its squares over all rows is not a finite "
             "double, though every cell is; rescale the column");
}

}  // namespace

RankKey RankKey::Of(const ChangeSummary& summary, const std::string& signature,
                    size_t item) {
  return RankKey{static_cast<int64_t>(std::llround(summary.scores().score * 1e7)),
                 summary.num_cts(), UsesOldTarget(summary), &signature, item};
}

bool RankKey::operator<(const RankKey& other) const {
  if (score != other.score) return score > other.score;
  if (num_cts != other.num_cts) return num_cts < other.num_cts;
  if (uses_old_target != other.uses_old_target) return uses_old_target;
  if (signature != other.signature) return *signature < *other.signature;
  return item < other.item;
}

bool RunState::StreamMerge::Add(ChangeSummary&& summary, std::string&& signature,
                                size_t item, int top_n) {
  ++evaluated;
  auto [interned, first] = signatures.insert(std::move(signature));
  if (!first) ++deduped;
  const RankKey key = RankKey::Of(summary, *interned, item);
  auto same = first ? top.end()
                    : std::find_if(top.begin(), top.end(), [&](const Entry& entry) {
                        return entry.key.signature == key.signature;
                      });
  if (same != top.end()) {
    if (!(key < same->key)) return false;
    top.erase(same);
  } else if (static_cast<int>(top.size()) >= top_n && !(key < top.back().key)) {
    return false;
  }
  auto pos = std::upper_bound(
      top.begin(), top.end(), key,
      [](const RankKey& k, const Entry& entry) { return k < entry.key; });
  top.insert(pos, Entry{key, std::move(summary)});
  if (static_cast<int>(top.size()) > top_n) top.pop_back();
  return true;
}

void RunState::EmitUpdate(bool cancelled) const {
  SummaryStreamUpdate update;
  update.cancelled = cancelled;
  update.shards_completed = stream_merge.completed;
  update.shards_total = work_items;
  update.elapsed_seconds = ElapsedSeconds();
  update.provisional.reserve(stream_merge.top.size());
  for (const StreamMerge::Entry& entry : stream_merge.top) {
    update.provisional.push_back(entry.summary);
  }
  stream->Emit(update);
}

Status RunState::Cancelled(const std::string& where) {
  if (stream != nullptr && !cancel_emitted) {
    std::lock_guard<std::mutex> lock(stream_merge.mu);
    EmitUpdate(/*cancelled=*/true);
  }
  cancel_emitted = true;
  return Status::Cancelled("Find cancelled " + where);
}

// --- Stage: DiffAlign -------------------------------------------------------

Status RunPipeline::DiffAlign(RunState& state) {
  // An empty snapshot has nothing to explain. Say so here: left to the diff,
  // it fails later with a type error about a column's numeric view.
  const bool source_empty = state.source.num_rows() == 0;
  const bool target_empty = state.target.num_rows() == 0;
  if (source_empty || target_empty) {
    const char* which = !target_empty   ? "source snapshot is"
                        : !source_empty ? "target snapshot is"
                                        : "source and target snapshots are";
    return Status::InvalidArgument(std::string(which) +
                                   " empty: there are no rows to explain");
  }
  DiffOptions diff_options;
  diff_options.key_columns = state.options.key_columns;
  diff_options.numeric_tolerance = state.options.numeric_tolerance;
  diff_options.allow_insert_delete = state.options.allow_insert_delete;
  CHARLES_ASSIGN_OR_RETURN(
      state.diff, SnapshotDiff::Compute(state.source, state.target, diff_options));

  // Alignment: make pair order coincide with analysis-table row order.
  bool identity_alignment =
      state.diff.num_pairs() == state.source.num_rows() &&
      std::all_of(state.diff.pairs().begin(), state.diff.pairs().end(),
                  [i = int64_t{0}](const SnapshotDiff::AlignedPair& p) mutable {
                    return p.source_row == i++;
                  });
  state.analysis = &state.source;
  if (!identity_alignment) {
    std::vector<int64_t> matched;
    matched.reserve(state.diff.pairs().size());
    for (const auto& pair : state.diff.pairs()) matched.push_back(pair.source_row);
    CHARLES_ASSIGN_OR_RETURN(state.matched_view,
                             state.source.Take(RowSet(std::move(matched))));
    state.analysis = &state.matched_view;
  }
  CHARLES_ASSIGN_OR_RETURN(state.y_old,
                           state.diff.SourceValues(state.options.target_attribute));
  CHARLES_ASSIGN_OR_RETURN(state.y_new,
                           state.diff.TargetValues(state.options.target_attribute));
  return CheckFiniteTarget(state);
}

// --- Stage: Setup -----------------------------------------------------------

Status RunPipeline::Setup(RunState& state) {
  const CharlesOptions& options = state.options;
  const Table& analysis = *state.analysis;

  // Attribute shortlists: assistant by default, user overrides honoured.
  CHARLES_ASSIGN_OR_RETURN(state.result.setup,
                           SetupAssistant::Analyze(state.diff, options));
  SetupResult& setup = state.result.setup;
  if (!options.condition_attributes.empty()) {
    std::vector<AttributeCandidate> forced;
    for (const std::string& name : options.condition_attributes) {
      CHARLES_ASSIGN_OR_RETURN(int idx, analysis.schema().FieldIndex(name));
      forced.push_back(AttributeCandidate{
          name, 1.0, IsNumeric(analysis.schema().field(idx).type), true});
    }
    setup.condition_candidates = std::move(forced);
  }
  if (!options.transform_attributes.empty()) {
    std::vector<AttributeCandidate> forced;
    for (const std::string& name : options.transform_attributes) {
      CHARLES_ASSIGN_OR_RETURN(int idx, analysis.schema().FieldIndex(name));
      if (!IsNumeric(analysis.schema().field(idx).type)) {
        return Status::TypeError("transformation attribute '" + name +
                                 "' is not numeric");
      }
      forced.push_back(AttributeCandidate{name, 1.0, true, true});
    }
    setup.transform_candidates = std::move(forced);
  }

  state.cond_names = setup.ConditionNames();
  state.tran_names = setup.TransformNames();
  for (const std::string& name : state.cond_names) {
    CHARLES_ASSIGN_OR_RETURN(int idx, analysis.schema().FieldIndex(name));
    state.cond_indices.push_back(idx);
  }

  // Subset enumeration (paper: all C ⊆ A_cond with |C| ≤ c, all T ⊆ A_tran
  // with |T| ≤ t; the empty T yields constant-shift transformations).
  state.c_subsets = EnumerateSubsets(static_cast<int>(state.cond_names.size()),
                                     options.max_condition_attrs);
  state.t_subsets = EnumerateSubsets(static_cast<int>(state.tran_names.size()),
                                     options.max_transform_attrs);
  state.t_subsets.insert(state.t_subsets.begin(), std::vector<int>{});

  state.result.condition_subsets = static_cast<int64_t>(state.c_subsets.size());
  state.result.transform_subsets = static_cast<int64_t>(state.t_subsets.size());
  return CheckFiniteShortlist(state);
}

// --- Stage: Phase1Signals ---------------------------------------------------

Status RunPipeline::Phase1Signals(RunState& state) {
  const CharlesOptions& options = state.options;

  // Column-gather cache: every T-subset's feature matrix draws on the same
  // shortlisted columns, so each is converted to doubles exactly once and
  // shared read-only by all phase-1 workers.
  CHARLES_ASSIGN_OR_RETURN(state.tran_columns,
                           ColumnCache::Build(*state.analysis, state.tran_names));

  // Run id: the run fingerprint, computed unconditionally and *before* any
  // shard dispatch so worker log lines and remote spans can carry it. The
  // `fingerprint` field keeps its historical contract — 0 without a context
  // — so nothing cache-keys on a run that has no cross-run cache. The run
  // id doubles as the trace id; the scope installs it on this thread for
  // the rest of the stage.
  state.run_id = ComputeRunFingerprint(options, state.tran_names,
                                       state.tran_columns, state.y_old,
                                       state.y_new);
  state.fingerprint = state.context != nullptr ? state.run_id : 0;
  state.result.run_id = obs::FormatRunId(state.run_id);
  if (state.recorder != nullptr) state.recorder->set_trace_id(state.run_id);
  obs::RunIdScope run_scope(state.run_id);

  // Phase cache: a context keeps the phase 1–2 products of recent runs. On
  // a hit this stage takes the cached shortlist moments (bit-identical to a
  // fresh fold) and skips the clustering; Phase2Trees
  // installs the cached partitions. Runs without a context never look.
  if (state.context != nullptr) {
    state.search_space_key = ComputeSearchSpaceKey(state);
    std::shared_ptr<const SearchSpace> cached;
    if (state.context->phase_cache()->Lookup(state.search_space_key, &cached)) {
      state.search_space = std::move(cached);
      state.shortlist_stats = state.search_space->shortlist_stats;
      state.t_attr_names = state.search_space->t_attr_names;
      state.result.labelings = state.search_space->labelings;
      state.result.phase_cache_hit = true;
      return Status::OK();
    }
  }

  // Sufficient statistics of the full transformation shortlist over all
  // rows, accumulated through the canonical block fold (AccumulateRowBlocks)
  // every other stats producer uses. Phase 1 solves every T-subset's global
  // model from these moments (a p×p sub-solve instead of an O(n·p²) QR per
  // subset), and phase 3 reuses them for the all-rows leaf — the k = 1
  // "universal" partitions cover exactly these rows in exactly this order.
  std::vector<const std::vector<double>*> shortlist_columns;
  bool resolved =
      state.tran_columns.ResolveColumns(state.tran_names, &shortlist_columns);
  CHARLES_CHECK(resolved);  // Build() covered exactly these names
  state.shortlist_stats = std::make_shared<const SufficientStats>(
      AccumulateRangeBlocks(shortlist_columns, state.y_new,
                            static_cast<int64_t>(state.y_new.size()),
                            options.stats_block_rows));
  CHARLES_RETURN_NOT_OK(CheckFiniteMoments(state));

  // Phase 1 — change-signal clusterings. Residual clusterings depend on the
  // transformation subset T; delta/relative-delta clusterings do not, so
  // they are computed once. All labelings arrive canonical and are pooled
  // and deduplicated: tree induction below runs once per (C, labeling) instead
  // of once per (C, T, k). Each T-subset clusters independently (exact 1-D
  // k-means, a pure function of its signal); pooling dedups sequentially in
  // T order.
  struct TSubsetLabelings {
    std::vector<std::string> transform_attrs;
    std::vector<std::vector<int>> canonical;
  };
  std::vector<TSubsetLabelings> per_t = ParallelMap<TSubsetLabelings>(
      state.pool, static_cast<int64_t>(state.t_subsets.size()), [&](int64_t ti) {
        TSubsetLabelings out;
        PartitionFinder::Input input;
        input.source = state.analysis;
        input.y_old = &state.y_old;
        input.y_new = &state.y_new;
        input.column_cache = &state.tran_columns;
        input.shortlist_stats = state.shortlist_stats.get();
        input.shortlist_subset = state.t_subsets[static_cast<size_t>(ti)];
        for (int t : state.t_subsets[static_cast<size_t>(ti)]) {
          input.transform_attrs.push_back(
              state.tran_names[static_cast<size_t>(t)]);
        }
        out.transform_attrs = input.transform_attrs;
        Result<PartitionFinder::ResidualClusterings> clusterings =
            PartitionFinder::ClusterResiduals(input, state.options,
                                              /*include_delta_signals=*/ti == 0);
        if (clusterings.ok()) out.canonical = std::move(clusterings->labelings);
        return out;
      });

  std::set<std::vector<int>> seen_labelings;
  for (TSubsetLabelings& t_result : per_t) {
    state.t_attr_names.push_back(std::move(t_result.transform_attrs));
    for (std::vector<int>& canonical : t_result.canonical) {
      if (seen_labelings.insert(canonical).second) {
        state.labelings.push_back(std::move(canonical));
      }
    }
  }
  state.result.labelings = static_cast<int64_t>(state.labelings.size());
  return Status::OK();
}

// --- Stage: Phase2Trees -----------------------------------------------------

namespace {

/// \brief Interns the candidate leaves of the final (capped) partitions:
/// leaves with equal row sets share one dense id, numbered by first
/// occurrence in partition then leaf order; RunState::leaves holds each id's
/// rows.
///
/// Distinct condition trees share most of their leaves, so phase 3 keys its
/// moments, no-change evidence and fits by these ids instead
/// of by row vectors. Equal row hashes are confirmed by comparing the rows.
void InternLeaves(RunState& state) {
  std::unordered_multimap<uint64_t, int64_t> ids_by_hash;
  state.leaves.clear();
  for (RunState::PartitionEntry& entry : state.partitions) {
    entry.leaf_ids.clear();
    for (const DecisionTree::Leaf& leaf : entry.candidate.leaves) {
      uint64_t h = kFnvOffsetBasis;
      for (int64_t row : leaf.rows) h = (h ^ static_cast<uint64_t>(row)) * kFnvPrime;
      int64_t id = -1;
      auto [begin, end] = ids_by_hash.equal_range(h);
      for (auto it = begin; it != end && id < 0; ++it) {
        if (state.leaves[static_cast<size_t>(it->second)]->indices() ==
            leaf.rows.indices()) {
          id = it->second;
        }
      }
      if (id < 0) {
        id = static_cast<int64_t>(state.leaves.size());
        ids_by_hash.emplace(h, id);
        state.leaves.push_back(&leaf.rows);
      }
      entry.leaf_ids.push_back(id);
    }
  }
}

/// RunState::leaves for partitions whose leaf ids are already set (a
/// phase-cache hit). Ids are numbered by first occurrence, so one walk in
/// partition order meets them in id order.
void IndexLeaves(RunState& state) {
  state.leaves.clear();
  for (const RunState::PartitionEntry& entry : state.partitions) {
    for (size_t l = 0; l < entry.leaf_ids.size(); ++l) {
      if (entry.leaf_ids[l] == static_cast<int64_t>(state.leaves.size())) {
        state.leaves.push_back(&entry.candidate.leaves[l].rows);
      }
    }
  }
}

}  // namespace

Status RunPipeline::Phase2Trees(RunState& state) {
  const CharlesOptions& options = state.options;
  if (state.search_space != nullptr) {  // phase-cache hit (Phase1Signals)
    state.partitions = state.search_space->partitions;
    state.result.partitions = static_cast<int64_t>(state.partitions.size());
    IndexLeaves(state);
    return Status::OK();
  }

  // One tree per (C, labeling), partitions deduplicated globally by their
  // leaf-order condition signature. Workers fan out over labelings, each
  // fitting every C-subset over one shared split search against the shared
  // read-only TreeAttributeCache; the global dedup walks C-subsets in
  // enumeration order, then labelings.
  CHARLES_ASSIGN_OR_RETURN(
      TreeAttributeCache attr_cache,
      TreeAttributeCache::Build(*state.analysis, state.cond_indices));
  std::vector<std::vector<int>> subset_indices(state.c_subsets.size());
  std::vector<std::vector<std::string>> subset_names(state.c_subsets.size());
  for (size_t ci = 0; ci < state.c_subsets.size(); ++ci) {
    for (int c : state.c_subsets[ci]) {
      subset_indices[ci].push_back(state.cond_indices[static_cast<size_t>(c)]);
      subset_names[ci].push_back(state.cond_names[static_cast<size_t>(c)]);
    }
  }
  CHARLES_ASSIGN_OR_RETURN(
      PartitionFinder::SubsetCandidates induced,
      PartitionFinder::InduceSubsetCandidates(*state.analysis, state.labelings,
                                              subset_indices, state.options,
                                              &attr_cache, state.pool));
  state.result.trees_induced = induced.trees_induced;
  state.result.split_scorings = induced.split_scorings;

  std::set<std::string> seen_partitions;
  for (size_t ci = 0; ci < induced.candidates.size(); ++ci) {
    std::vector<PartitionCandidate>& candidates = induced.candidates[ci];
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (!seen_partitions.insert(std::move(induced.signatures[ci][i])).second) continue;
      state.partitions.push_back(RunState::PartitionEntry{std::move(candidates[i]),
                                                          subset_names[ci], {}});
    }
  }

  // Bound the search: keep the partitionings whose conditions describe
  // their source clusters best (deterministic order).
  if (static_cast<int>(state.partitions.size()) > options.max_partitions) {
    std::stable_sort(state.partitions.begin(), state.partitions.end(),
                     [](const RunState::PartitionEntry& a,
                        const RunState::PartitionEntry& b) {
                       double aa = a.candidate.label_agreement;
                       double bb = b.candidate.label_agreement;
                       if (aa != bb) return aa > bb;
                       return a.candidate.leaves.size() < b.candidate.leaves.size();
                     });
    state.partitions.resize(static_cast<size_t>(options.max_partitions));
  }
  state.result.partitions = static_cast<int64_t>(state.partitions.size());
  InternLeaves(state);

  // Only a run whose phases 1–2 both completed publishes its search space.
  if (state.context != nullptr) {
    auto space = std::make_shared<SearchSpace>();
    space->t_attr_names = state.t_attr_names;
    space->partitions = state.partitions;
    space->shortlist_stats = state.shortlist_stats;
    space->labelings = state.result.labelings;
    state.context->phase_cache()->Insert(state.search_space_key, std::move(space));
  }
  return Status::OK();
}

// --- Stage: Phase3Fits ------------------------------------------------------

namespace {

/// \brief The run's fit table: one slot per distinct (leaf, T), plus the
/// per-leaf inputs of the fits, in flat arrays indexed by leaf id
/// (RunState::leaves) and t_index.
struct FitTable {
  struct Slot {
    /// Served by the context cache in step 1; never written after it.
    bool resolved = false;
    /// Fills an unresolved slot exactly once, on first demand in the sweep.
    std::once_flag once;
    Status status;  ///< the fit's failure, if it failed
    SharedLeafFit fit;
  };

  FitTable(size_t num_leaves, size_t t_count)
      : t_count(t_count),
        slots(num_leaves * t_count),
        max_abs_delta(num_leaves, 0.0),
        moments(num_leaves) {}

  Slot& at(int64_t leaf, size_t ti) {
    return slots[static_cast<size_t>(leaf) * t_count + ti];
  }

  /// True when some slot of the leaf was not served by the context cache.
  bool NeedsFit(int64_t leaf) {
    for (size_t ti = 0; ti < t_count; ++ti) {
      if (!at(leaf, ti).resolved) return true;
    }
    return false;
  }

  size_t t_count;
  std::vector<Slot> slots;
  /// max |y_new − y_old| of every leaf that needs a fit (steps 1–2).
  std::vector<double> max_abs_delta;
  /// Moments over the shortlist of every changed leaf that needs a fit.
  std::vector<std::shared_ptr<const SufficientStats>> moments;
};

/// \brief Step 1: looks every (leaf, T) slot up in the context cache once,
/// in parallel over leaves, and keeps what it finds.
///
/// Also folds max |y_new − y_old| for every leaf left with an empty slot:
/// the no-change decision of its fits. Max folds exactly, so the order of
/// the scan never shows.
void ResolveSlots(const RunState& state, FitTable* table) {
  SharedLeafFitCache* cache =
      state.context != nullptr ? state.context->leaf_cache() : nullptr;
  const int64_t num_leaves = static_cast<int64_t>(state.leaves.size());
  ParallelFor(state.pool, num_leaves, [&](int64_t leaf) {
    const RowSet& rows = *state.leaves[static_cast<size_t>(leaf)];
    if (cache != nullptr) {
      LeafKey key{state.fingerprint, 0, rows.indices()};
      for (size_t ti = 0; ti < table->t_count; ++ti) {
        key.t_index = ti;
        FitTable::Slot& slot = table->at(leaf, ti);
        slot.resolved = cache->Lookup(key, &slot.fit);
      }
    }
    if (!table->NeedsFit(leaf)) return;
    double max_delta = 0.0;
    for (int64_t row : rows) {
      const double delta = std::abs(state.y_new[static_cast<size_t>(row)] -
                                    state.y_old[static_cast<size_t>(row)]);
      if (delta > max_delta) max_delta = delta;
    }
    table->max_abs_delta[static_cast<size_t>(leaf)] = max_delta;
  });
}

/// \brief Step 2: the kLeafMoments round.
///
/// Routes every changed leaf with an empty slot and no moments yet (the
/// all-rows leaf has phase 1's) through one kLeafMoments task on the run's
/// backend, planned as `num_shards` block-aligned ranges — one per pool
/// thread when num_shards is 0 — so the column walks run block-parallel
/// before the sweep starts. The coordinator's block-order merge replays the
/// canonical fold, so the moments are bit-identical at any range count and
/// on any backend. Leaves whose every slot the context served are elided:
/// a warm repeat run dispatches no task at all.
Status RunMomentsRound(RunState& state, FitTable* table) {
  ShardTask moments;
  for (int64_t leaf = 0; leaf < static_cast<int64_t>(state.leaves.size()); ++leaf) {
    const size_t l = static_cast<size_t>(leaf);
    if (!table->NeedsFit(leaf)) {
      state.result.shard_moment_leaves_elided += 1;
    } else if (table->moments[l] == nullptr &&
               table->max_abs_delta[l] > state.options.numeric_tolerance) {
      moments.leaves.push_back(leaf);
    }
  }
  state.result.shard_moment_leaves_swept =
      static_cast<int64_t>(moments.leaves.size());
  if (moments.leaves.empty()) return Status::OK();

  const CharlesOptions& options = state.options;
  const int ranges = options.num_shards > 0 ? options.num_shards
                     : state.pool != nullptr ? state.num_threads
                                             : 1;
  ShardPlan plan =
      PlanShards(state.analysis->num_rows(), options.stats_block_rows, ranges);
  ShardInput input;
  input.shortlist = &state.tran_names;
  input.columns = &state.tran_columns;
  input.y_new = &state.y_new;
  input.leaves = state.leaves;
  CHARLES_ASSIGN_OR_RETURN(ShardBackend* backend, SelectShardBackend(state));
  Result<CoordinatorTaskResult> merged = Coordinator::RunTask(
      input, plan, backend, state.pool, moments, state.stop);
  if (!merged.ok()) {
    if (merged.status().IsCancelled()) {
      return state.Cancelled("during the leaf-moments round");
    }
    return merged.status();
  }
  FoldRoundDiagnostics(*merged, plan, &state.result);
  FoldRemoteDiagnostics(state);
  for (size_t i = 0; i < moments.leaves.size(); ++i) {
    table->moments[static_cast<size_t>(moments.leaves[i])] =
        std::make_shared<const SufficientStats>(std::move(merged->leaves[i].stats));
  }
  return Status::OK();
}

}  // namespace

Status RunPipeline::Phase3Fits(RunState& state) {
  const CharlesOptions& options = state.options;
  const CharlesEngine& engine = state.engine;
  const size_t t_count = state.t_attr_names.size();
  state.work_items =
      static_cast<int64_t>(state.partitions.size()) * static_cast<int64_t>(t_count);

  // The run's one Scorer — the single y_old/y_new copy of the whole sweep.
  state.scorer = std::make_unique<Scorer>(options, state.y_old, state.y_new);

  // Step 1 — resolve: one context lookup per (leaf, T) slot.
  FitTable table(state.leaves.size(), t_count);
  ResolveSlots(state, &table);

  // Step 2 — moments for every changed leaf with an empty slot, so no fit
  // ever scans for them. The k = 1 "universal" leaves cover every row in
  // order: phase 1 already folded their moments (leaf rows ascend, so a
  // leaf of all n rows is exactly 0..n−1).
  const int64_t num_rows = state.analysis->num_rows();
  for (size_t leaf = 0; leaf < state.leaves.size(); ++leaf) {
    if (state.leaves[leaf]->size() == num_rows) {
      table.moments[leaf] = state.shortlist_stats;
    }
  }
  CHARLES_RETURN_NOT_OK(RunMomentsRound(state, &table));

  // Fills one empty slot: the fit from the table's per-leaf inputs,
  // published to the context cache for later runs.
  auto fill_slot = [&](int64_t leaf, size_t ti, FitTable::Slot& slot) {
    const size_t l = static_cast<size_t>(leaf);
    CharlesEngine::LeafStatsWorkspace workspace;
    workspace.columns = &state.tran_columns;
    workspace.moments = table.moments[l].get();
    workspace.t_subset = &state.t_subsets[ti];
    workspace.max_abs_delta = table.max_abs_delta[l];
    workspace.block_rows = options.stats_block_rows;
    workspace.score_tolerance = state.scorer->exact_tolerance();
    const RowSet& rows = *state.leaves[l];
    Result<SharedLeafFit> fit = engine.FitLeaf(state.y_old, state.y_new, rows,
                                               state.t_attr_names[ti], workspace);
    if (!fit.ok()) {
      slot.status = fit.status();
      return;
    }
    slot.fit = std::move(*fit);
    if (state.context != nullptr) {
      state.context->leaf_cache()->Insert(
          LeafKey{state.fingerprint, ti, rows.indices()}, slot.fit);
    }
  };

  // Step 3 — the sweep: every surviving partitioning is paired with every
  // transformation subset. Work is sharded by (partition, T) pair — finer
  // than per-partition, so the pool stays balanced even when few
  // partitionings survive dedup. Each leaf's slot is filled exactly once,
  // by whichever item reaches it first (the others wait on its once_flag),
  // so the fit counters are deterministic. Each item then merges its
  // summary into the run's one ranking (RunState::StreamMerge), whose top-N
  // does not depend on the order items arrive in.
  RunState::StreamMerge& merge = state.stream_merge;
  ParallelFor(state.pool, state.work_items, [&](int64_t item) {
    // Cancellation point between (partition, T) work items: a stopped run
    // drains its remaining items as no-ops (the pool cannot unqueue them)
    // and the post-barrier check below turns the run into
    // Status::Cancelled.
    if (state.StopRequested()) return;
    const size_t pi = static_cast<size_t>(item) / t_count;
    const size_t ti = static_cast<size_t>(item) % t_count;
    const RunState::PartitionEntry& entry = state.partitions[pi];
    // Declared before the lock, so a summary the merge rejects is freed
    // after the lock is released.
    ChangeSummary summary;
    std::string signature;
    std::vector<const SharedLeafFit*> fits;
    fits.reserve(entry.leaf_ids.size());
    int64_t fits_computed = 0;
    int64_t fits_reused = 0;
    for (int64_t leaf : entry.leaf_ids) {
      FitTable::Slot& slot = table.at(leaf, ti);
      bool filled = false;
      if (!slot.resolved) {
        std::call_once(slot.once, [&] {
          fill_slot(leaf, ti, slot);
          filled = true;
        });
      }
      ++(filled ? fits_computed : fits_reused);
      if (!slot.status.ok()) break;
      fits.push_back(&slot.fit);
    }
    const bool built = fits.size() == entry.leaf_ids.size();
    if (built) {
      summary = engine.BuildSummary(entry.candidate, fits, state.t_attr_names[ti],
                                    entry.condition_attrs, *state.scorer);
      signature = summary.Signature();
    }

    std::lock_guard<std::mutex> lock(merge.mu);
    merge.fits_computed += fits_computed;
    merge.fits_reused += fits_reused;
    const int64_t completed = ++merge.completed;
    const bool changed =
        built && merge.Add(std::move(summary), std::move(signature),
                           static_cast<size_t>(item), options.top_n);
    // Re-ranking and copying the top-N per item would dwarf the search
    // itself; emit only when the top-N changed — items that only rediscover
    // or underbid known summaries just advance the counter — plus always on
    // the final item so consumers observe completion. A stopping run
    // suppresses emissions: its final update is the cancelled one the
    // driver emits.
    if (state.stream != nullptr && (changed || completed == state.work_items) &&
        !state.StopRequested()) {
      state.EmitUpdate(/*cancelled=*/false);
    }
  });

  if (state.StopRequested()) {
    return state.Cancelled("during phase 3 (after " +
                           std::to_string(merge.completed) + " of " +
                           std::to_string(state.work_items) + " work items)");
  }

  state.result.leaf_fits_computed = merge.fits_computed;
  state.result.leaf_fits_reused = merge.fits_reused;
  // A leaf has at least one row, so a computed fit never fails and folds its
  // score exactly once.
  state.result.score_leaf_folds = merge.fits_computed;
  return Status::OK();
}

// --- Stage: RankStream ------------------------------------------------------

Status RunPipeline::RankStream(RunState& state) {
  SummaryList& result = state.result;
  if (state.context != nullptr) {
    result.leaf_fit_evictions = state.context->leaf_cache()->evictions();
  }
  // Phase 3's merge is the ranking: its top-N is the returned list.
  RunState::StreamMerge& merge = state.stream_merge;
  result.candidates_evaluated = merge.evaluated;
  result.candidates_deduped = merge.deduped;
  result.summaries.reserve(merge.top.size());
  for (RunState::StreamMerge::Entry& entry : merge.top) {
    result.summaries.push_back(std::move(entry.summary));
  }
  merge.top.clear();
  return Status::OK();
}

// --- Driver -----------------------------------------------------------------

const RunPipeline::StageSpec* RunPipeline::Stages(size_t* count) {
  static const StageSpec kStages[] = {
      {"diff/align", &RunPipeline::DiffAlign, nullptr},
      {"setup", &RunPipeline::Setup, nullptr},
      {"phase 1 (signals)", &RunPipeline::Phase1Signals,
       &SummaryList::clustering_seconds},
      {"phase 2 (trees)", &RunPipeline::Phase2Trees,
       &SummaryList::induction_seconds},
      {"phase 3 (fits)", &RunPipeline::Phase3Fits, &SummaryList::fitting_seconds},
      {"rank/stream", &RunPipeline::RankStream, nullptr},
  };
  *count = sizeof(kStages) / sizeof(kStages[0]);
  return kStages;
}

Result<SummaryList> RunPipeline::Run(const CharlesEngine& engine,
                                     const Table& source, const Table& target,
                                     SummaryStream* stream, const StopToken* stop) {
  CHARLES_RETURN_NOT_OK(engine.options().Validate());
  RunState state(engine, source, target, stream, stop);
  // Any exit below this point delivers every queued stream update before the
  // run resolves (buffered SummaryStream delivery; see engine.h).
  auto flush_stream = [&state] {
    if (state.stream != nullptr) state.stream->Flush();
  };

  // Admission control: a context may bound its concurrently executing runs
  // (queueing or rejecting the excess); the slot is held for the whole run
  // and released on every exit path. The stop token reaches into the queue
  // too, so a cancelled caller never waits out the runs ahead of it — and
  // still receives the promised final cancelled stream update.
  if (state.context != nullptr) {
    Result<EngineContext::RunSlot> admitted = state.context->AdmitRun(stop);
    if (!admitted.ok()) {
      if (admitted.status().IsCancelled()) {
        Status cancelled = state.Cancelled("during admission (" +
                                           admitted.status().message() + ")");
        flush_stream();
        return cancelled;
      }
      flush_stream();
      return admitted.status();
    }
    state.run_slot = std::move(*admitted);
  }

  // Execution resources: every stage fans out over one ThreadPool and
  // reduces its per-item results in deterministic input order, so the
  // ranked output is bit-identical to a serial (num_threads = 1) run. With
  // an attached EngineContext the context's long-lived pool is used (its
  // thread count supersedes options.num_threads); otherwise a per-run pool
  // is spawned here, once, for all stages.
  if (state.context != nullptr) {
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
  state.result.threads_used = state.pool != nullptr ? state.num_threads : 1;

  // Tracing (CharlesOptions::trace): one recorder for the whole run, handed
  // to the caller through the result. Off ⇒ state.recorder stays null and
  // every Span below is inert — no allocation, no clock read, no lock.
  if (state.options.trace) {
    state.recorder = std::make_shared<obs::TraceRecorder>();
    state.result.trace = state.recorder;
  }

  size_t stage_count = 0;
  const StageSpec* stages = Stages(&stage_count);
  for (size_t s = 0; s < stage_count; ++s) {
    // Cancellation point between stages (stages add finer-grained checks —
    // per work item, per shard dispatch — where work is long).
    if (state.StopRequested()) {
      Status cancelled =
          state.Cancelled(std::string("before ") + stages[s].name);
      flush_stream();
      return cancelled;
    }
    auto stage_start = std::chrono::steady_clock::now();
    Status status;
    {
      // Stage span + run-id scope on the driving thread: coordinator spans
      // nest under the stage, and dispatches pick the run id up from here.
      // (run_id is 0 until phase 1 computes it; phase 1 re-scopes itself.)
      obs::Span stage_span(state.recorder.get(), stages[s].name);
      obs::RunIdScope run_scope(state.run_id);
      status = stages[s].fn(state);
    }
    if (stages[s].timing != nullptr) {
      state.result.*(stages[s].timing) =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        stage_start)
              .count();
    }
    if (!status.ok()) {
      // Stages route their own cancellations through RunState::Cancelled;
      // this is the belt-and-braces for one that did not.
      if (status.IsCancelled() && !state.cancel_emitted) {
        Status emitted = state.Cancelled("during " + std::string(stages[s].name));
        (void)emitted;
      }
      flush_stream();
      return status;
    }
  }

  state.result.elapsed_seconds = state.ElapsedSeconds();
  if (state.context != nullptr) state.context->NoteRunCompleted();

  // Process-wide serving metrics (docs/observability.md#metric-catalog).
  {
    static obs::Counter* const runs =
        obs::MetricsRegistry::Global().counter("engine.runs_completed");
    static obs::Histogram* const latency =
        obs::MetricsRegistry::Global().histogram("engine.run_seconds");
    runs->Increment();
    latency->Observe(state.result.elapsed_seconds);
    if (state.context != nullptr) {
      // Cross-run cache health, refreshed once per run (the counters live in
      // the sharded cache; gauges mirror them into the registry snapshot).
      static obs::Gauge* const cache_entries =
          obs::MetricsRegistry::Global().gauge("engine.cache_entries");
      static obs::Gauge* const cache_hits =
          obs::MetricsRegistry::Global().gauge("engine.cache_hits");
      static obs::Gauge* const cache_misses =
          obs::MetricsRegistry::Global().gauge("engine.cache_misses");
      static obs::Gauge* const cache_evictions =
          obs::MetricsRegistry::Global().gauge("engine.cache_evictions");
      const SharedLeafFitCache* cache = state.context->leaf_cache();
      cache_entries->Set(static_cast<int64_t>(cache->Size()));
      cache_hits->Set(cache->hits());
      cache_misses->Set(cache->misses());
      cache_evictions->Set(cache->evictions());
    }
  }

  flush_stream();
  return std::move(state.result);
}

}  // namespace charles
