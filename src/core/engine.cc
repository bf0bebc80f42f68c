#include "core/engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <utility>

#include "common/string_util.h"
#include "core/normality.h"
#include "core/run_pipeline.h"
#include "core/scoring.h"
#include "linalg/error_partials.h"
#include "linalg/kernels/kernel.h"
#include "linalg/stats.h"
#include "linalg/suffstats.h"

namespace charles {

std::string SummaryList::ToString() const {
  std::string out;
  for (size_t i = 0; i < summaries.size(); ++i) {
    out += "#" + std::to_string(i + 1) + " (score " +
           FormatDouble(summaries[i].scores().score, 4) + ")\n";
    out += summaries[i].ToString();
  }
  out += "evaluated " + std::to_string(candidates_evaluated) + " candidates over " +
         std::to_string(condition_subsets) + " condition subsets x " +
         std::to_string(transform_subsets) + " transform subsets in " +
         FormatDouble(elapsed_seconds, 3) + "s on " + std::to_string(threads_used) +
         (threads_used == 1 ? " thread\n" : " threads\n");
  return out;
}

namespace {

/// Builds the Figure-2 model tree from the condition-induction tree, pairing
/// leaves (YES-first traversal order) with the CTs built from them.
std::unique_ptr<ModelTreeNode> BuildModelTreeNode(
    const DecisionTreeNode& node, const std::vector<ConditionalTransform>& cts,
    size_t* leaf_index) {
  auto out = std::make_unique<ModelTreeNode>();
  if (node.is_leaf) {
    out->is_leaf = true;
    const ConditionalTransform& ct = cts[*leaf_index];
    ++*leaf_index;
    if (!ct.transform.is_no_change()) {
      out->transform = ct.transform;
    }
    out->coverage = ct.coverage;
    out->count = ct.rows.size();
    return out;
  }
  out->is_leaf = false;
  out->split = node.condition;
  out->yes = BuildModelTreeNode(*node.yes, cts, leaf_index);
  out->no = BuildModelTreeNode(*node.no, cts, leaf_index);
  return out;
}

/// \brief The leaf's sufficient statistics over the run's full
/// transformation shortlist: local tier, then shared tier, then the
/// canonical block-structured accumulation published to both.
///
/// Accumulation is the AccumulateRowBlocks fold — per-block partials in
/// RowSet (= serial) row order, merged in block order — so the moments are
/// bit-identical no matter which worker performs it *and* no matter whether
/// a distributed coordinator pre-merged them from row-range shards: every
/// executor replays the same per-block partials and the same fold (the
/// distributed determinism contract, docs/distributed.md). Returns nullptr
/// when a shortlist column is missing from the cache (fast path
/// unavailable).
std::shared_ptr<const SufficientStats> FindOrAccumulateLeafStats(
    const CharlesEngine::LeafStatsWorkspace& ws, const RowSet& rows,
    const std::vector<double>& y_new, const ColumnCache& columns) {
  // A workspace without an explicit block size could cache moments folded
  // at a different block size than the run's other producers use — refuse
  // the fast path instead (see LeafStatsWorkspace::block_rows).
  if (ws.block_rows < 1) return nullptr;
  if (ws.local != nullptr) {
    auto it = ws.local->find(rows.indices());
    if (it != ws.local->end()) return it->second;
  }
  CharlesEngine::LeafKey key;
  if (ws.shared != nullptr) {
    key = CharlesEngine::LeafKey{ws.fingerprint, 0, rows.indices()};
    std::shared_ptr<const SufficientStats> found;
    if (ws.shared->Lookup(key, &found)) {
      if (ws.local != nullptr) ws.local->emplace(rows.indices(), found);
      return found;
    }
  }
  std::vector<const std::vector<double>*> cols;
  if (!columns.ResolveColumns(*ws.shortlist, &cols)) return nullptr;
  std::shared_ptr<const SufficientStats> out =
      std::make_shared<const SufficientStats>(
          AccumulateRowBlocks(cols, y_new, rows.indices(), ws.block_rows));
  if (ws.shared != nullptr) ws.shared->Insert(std::move(key), out);
  if (ws.local != nullptr) ws.local->emplace(rows.indices(), out);
  return out;
}

/// \brief Rebuilds a full LeafFit from its compact cached form.
///
/// Predictions are re-evaluated from the cached feature columns through the
/// same PredictRow dot product the original fit used on its gathered matrix,
/// so the rehydrated fit is bit-identical to the one that was cached.
/// Returns false (leaving `out` unspecified) when a feature column is
/// missing from the cache; the caller then treats the lookup as a miss.
bool RehydrateLeafFit(const SharedLeafFit& compact, const RowSet& rows,
                      const std::vector<double>& y_old,
                      const ColumnCache* column_cache,
                      CharlesEngine::LeafFit* out) {
  out->transform = compact.transform;
  out->partition_mae = compact.partition_mae;
  out->score = compact.score;
  out->has_score = compact.has_score;
  out->predictions.clear();
  out->predictions.reserve(static_cast<size_t>(rows.size()));
  if (compact.transform.is_no_change()) {
    for (int64_t row : rows) {
      out->predictions.push_back(y_old[static_cast<size_t>(row)]);
    }
    return true;
  }
  if (column_cache == nullptr) return false;
  const LinearModel& model = compact.transform.model();
  std::vector<const std::vector<double>*> cols;
  if (!column_cache->ResolveColumns(model.feature_names, &cols)) return false;
  std::vector<double> features(cols.size());
  for (int64_t r = 0; r < rows.size(); ++r) {
    size_t row = static_cast<size_t>(rows[r]);
    for (size_t f = 0; f < cols.size(); ++f) features[f] = (*cols[f])[row];
    out->predictions.push_back(model.PredictRow(features.data()));
  }
  return true;
}

}  // namespace

Result<CharlesEngine::LeafFit> CharlesEngine::FitLeaf(
    const Table& source, const std::vector<double>& y_old,
    const std::vector<double>& y_new, const RowSet& rows,
    const std::vector<std::string>& transform_attrs,
    const ColumnCache* column_cache,
    const LeafStatsWorkspace* stats_workspace, size_t t_index,
    LeafFitStats* stats) const {
  const std::string& target = options_.target_attribute;
  // Row-free scoring mode: fold this leaf's (Σ|y − ŷ|, exact count) with
  // the run scorer's exactness band so BuildSummary can merge per-leaf
  // partials in leaf order instead of scattering predictions into a
  // run-wide ŷ. Deliberately independent of use_sufficient_stats: the QR
  // ladder scores row-free too.
  const bool score_fold = stats_workspace != nullptr &&
                          stats_workspace->block_rows >= 1 &&
                          stats_workspace->score_tolerance >= 0.0;
  // No-change detection: the whole partition kept its old value. A
  // distributed sweep already folded max |y_new − y_old| per leaf (max is
  // exactly associative, so the evidence equals what this scan would
  // compute); leaves without evidence are scanned serially.
  const double* shard_max_delta = nullptr;
  if (stats_workspace != nullptr &&
      stats_workspace->nochange_max_delta != nullptr) {
    auto it = stats_workspace->nochange_max_delta->find(rows.indices());
    if (it != stats_workspace->nochange_max_delta->end()) {
      shard_max_delta = &it->second;
    }
  }
  bool unchanged = true;
  if (shard_max_delta != nullptr) {
    unchanged = *shard_max_delta <= options_.numeric_tolerance;
  } else {
    for (int64_t row : rows) {
      if (std::abs(y_new[static_cast<size_t>(row)] -
                   y_old[static_cast<size_t>(row)]) > options_.numeric_tolerance) {
        unchanged = false;
        break;
      }
    }
  }
  LeafFit fit;
  if (unchanged) {
    fit.transform = LinearTransform::NoChange(target);
    fit.partition_mae = 0.0;
    fit.predictions.reserve(static_cast<size_t>(rows.size()));
    for (int64_t row : rows) fit.predictions.push_back(y_old[static_cast<size_t>(row)]);
    if (score_fold) {
      // A no-change leaf still contributes canonical partials: every row
      // lands inside the band (|y_new − y_old| ≤ numeric_tolerance ≤ the
      // band), but the Σ chain must replay the canonical block order so the
      // merged score bits stay canonical.
      std::vector<double> y_part(static_cast<size_t>(rows.size()));
      if (rows.size() > 0) {
        kernels::ActiveKernel().gather(y_new.data(), rows.indices().data(),
                                       rows.size(), y_part.data(),
                                       /*dst_stride=*/1);
      }
      fit.score = AccumulateScoreDiffBlocks(
          y_part, fit.predictions, rows.indices(), stats_workspace->block_rows,
          stats_workspace->score_tolerance);
      fit.has_score = true;
      if (stats != nullptr) ++stats->score_leaf_folds;
    }
    return fit;
  }

  // Transformation discovery: per-partition OLS on T.
  //
  // Fast path: solve the T-subset's normal equations from the leaf's
  // sufficient statistics — accumulated in one scan over the leaf's rows and
  // reused by every other T-subset that visits this leaf. Ill-conditioned or
  // underdetermined systems fail the solve and drop to the row-level QR
  // ladder below, which is also the path when no workspace is attached.
  LinearModel model;
  bool have_model = false;
  if (options_.use_sufficient_stats && stats_workspace != nullptr &&
      stats_workspace->shortlist != nullptr && stats_workspace->t_subset != nullptr &&
      stats_workspace->local != nullptr && stats_workspace->shared != nullptr &&
      column_cache != nullptr) {
    std::shared_ptr<const SufficientStats> leaf_stats =
        FindOrAccumulateLeafStats(*stats_workspace, rows, y_new, *column_cache);
    if (leaf_stats != nullptr) {
      Result<LinearModel> fast = LinearRegression::FitFromStats(
          *leaf_stats, *stats_workspace->t_subset, transform_attrs);
      if (fast.ok()) {
        model = std::move(*fast);
        have_model = true;
      }
    }
  }

  // Feature matrix for snapping, predictions, and the QR path. Features come
  // from the run's pre-converted ColumnCache when available (the engine
  // always passes one), falling back to per-leaf gather + conversion.
  Matrix x(rows.size(), static_cast<int64_t>(transform_attrs.size()));
  const kernels::Kernel& kernel = kernels::ActiveKernel();
  for (size_t f = 0; f < transform_attrs.size(); ++f) {
    const std::vector<double>* full =
        column_cache != nullptr ? column_cache->Find(transform_attrs[f]) : nullptr;
    if (full != nullptr) {
      if (rows.size() > 0) {
        kernel.gather(full->data(), rows.indices().data(), rows.size(),
                      &x.At(0, static_cast<int64_t>(f)), x.cols());
      }
      continue;
    }
    CHARLES_ASSIGN_OR_RETURN(const Column* col, source.ColumnByName(transform_attrs[f]));
    CHARLES_ASSIGN_OR_RETURN(std::vector<double> values, col->GatherDoubles(rows));
    for (int64_t r = 0; r < rows.size(); ++r) {
      x.At(r, static_cast<int64_t>(f)) = values[static_cast<size_t>(r)];
    }
  }
  std::vector<double> y_part(static_cast<size_t>(rows.size()));
  if (rows.size() > 0) {
    kernel.gather(y_new.data(), rows.indices().data(), rows.size(),
                  y_part.data(), /*dst_stride=*/1);
  }
  if (!have_model) {
    CHARLES_ASSIGN_OR_RETURN(model, LinearRegression::Fit(x, y_part, transform_attrs));
  }

  // Exact-L1 evaluation mode. Under the sufficient-statistics path every
  // L1 evaluation below — SnapModel's accuracy-guard baseline and the final
  // fit MAE — goes through the canonical block fold of
  // linalg/error_partials.h, which a distributed kScorePartials round
  // reproduces bit-for-bit from shard partials. The QR-only path keeps the
  // historical serial sums unchanged.
  const bool canonical_error = options_.use_sufficient_stats &&
                               stats_workspace != nullptr &&
                               stats_workspace->block_rows >= 1;
  // Shard-merged exact (Σ|y − ŷ|, exact count) of the fast-path model, when
  // a distributed kScorePartials sweep pre-evaluated it for this (leaf, T).
  // Only valid for the model the probe solved — i.e. when the fast solve
  // above succeeded.
  const ScorePartials* score_evidence = nullptr;
  if (canonical_error && have_model &&
      stats_workspace->score_evidence != nullptr) {
    auto it = stats_workspace->score_evidence->find(rows.indices());
    if (it != stats_workspace->score_evidence->end() &&
        t_index < it->second.valid.size() && it->second.valid[t_index] != 0) {
      score_evidence = &it->second.partials[t_index];
    }
  }

  NormalityOptions normality = options_.normality;
  normality.exactness_tolerance =
      std::max(normality.exactness_tolerance, options_.numeric_tolerance);
  SnapErrorSpec error_spec;
  const SnapErrorSpec* error_spec_ptr = nullptr;
  // The evidence's L1 projection is bit-identical to the central canonical
  // error fold (the score fold's Σ chain replays its addends exactly), so
  // one score round serves both the snap baseline and the score.
  ErrorPartials evidence_error;
  if (canonical_error) {
    if (score_evidence != nullptr) {
      evidence_error = score_evidence->error();
      error_spec.baseline = &evidence_error;
    }
    error_spec.rows = &rows.indices();
    error_spec.block_rows = stats_workspace->block_rows;
    error_spec_ptr = &error_spec;
  }
  const LinearModel pre_snap = model;
  model = SnapModel(model, x, y_part, normality, error_spec_ptr);
  fit.predictions = model.PredictBatch(x);
  // The moments pin down r²/rmse exactly but only estimate the L1 error;
  // the reported MAE is always exact. Under the stats path it comes from
  // the canonical fold — served straight from the shard-merged partials
  // when snapping left the probed model untouched, re-folded centrally
  // (bit-identically) otherwise; the QR path recomputes it serially from
  // the prediction pass as before. When row-free scoring is on, the same
  // fold also yields the leaf's score partials: its Σ chain is the
  // AccumulateAbsDiffBlocks chain, so the MAE comes out bit-identical.
  const bool snap_noop =
      score_evidence != nullptr &&
      std::memcmp(&model.intercept, &pre_snap.intercept, sizeof(double)) == 0 &&
      model.coefficients.size() == pre_snap.coefficients.size() &&
      (model.coefficients.empty() ||
       std::memcmp(model.coefficients.data(), pre_snap.coefficients.data(),
                   model.coefficients.size() * sizeof(double)) == 0);
  if (canonical_error && snap_noop) {
    model.mae = score_evidence->mae();
    fit.score = *score_evidence;
    fit.has_score = true;
  } else if (score_fold) {
    fit.score = AccumulateScoreDiffBlocks(
        y_part, fit.predictions, rows.indices(), stats_workspace->block_rows,
        stats_workspace->score_tolerance);
    fit.has_score = true;
    if (stats != nullptr) ++stats->score_leaf_folds;
    model.mae = canonical_error ? fit.score.mae()
                                : MeanAbsoluteError(fit.predictions, y_part);
  } else if (canonical_error) {
    model.mae = AccumulateAbsDiffBlocks(y_part, fit.predictions, rows.indices(),
                                        stats_workspace->block_rows)
                    .mae();
  } else {
    model.mae = MeanAbsoluteError(fit.predictions, y_part);
  }
  fit.partition_mae = model.mae;
  fit.transform = LinearTransform::Linear(target, std::move(model));
  return fit;
}

Result<ChangeSummary> CharlesEngine::BuildSummary(
    const Table& source, const std::vector<double>& y_old,
    const std::vector<double>& y_new, const PartitionCandidate& candidate,
    const std::vector<std::string>& transform_attrs,
    const std::vector<std::string>& condition_attrs, LeafFitCache* cache,
    SharedLeafFitCache* shared_cache, size_t t_index, LeafFitStats* stats,
    uint64_t cache_fingerprint, const ColumnCache* column_cache,
    const LeafStatsWorkspace* stats_workspace, const Scorer* scorer) const {
  const std::string& target = options_.target_attribute;
  int64_t n = source.num_rows();
  // Row-free scoring: merge per-leaf ScorePartials in leaf (CT) order and
  // never materialize a run-wide ŷ. Requires the run-level scorer and a
  // workspace carrying its exactness band; every other caller keeps the
  // historical scatter-and-scan path below.
  const bool row_free = scorer != nullptr && stats_workspace != nullptr &&
                        stats_workspace->block_rows >= 1 &&
                        stats_workspace->score_tolerance >= 0.0;
  std::vector<double> y_hat;
  if (!row_free) y_hat = y_old;
  ScorePartials score_total;
  std::vector<ConditionalTransform> cts;
  cts.reserve(candidate.leaves.size());

  for (const DecisionTree::Leaf& leaf : candidate.leaves) {
    const RowSet& rows = leaf.rows;
    ConditionalTransform ct;
    ct.condition = leaf.condition;
    ct.rows = rows;
    ct.coverage = rows.Coverage(n);

    // Tiered lookup: worker-local cache (lock-free), then the cross-worker
    // sharded cache, then an actual fit published to both tiers. The shared
    // tier stores fits compactly (no predictions; see SharedLeafFit), so a
    // shared hit rehydrates the predictions from the cached columns. Fits
    // are deterministic in (rows, T) and rehydration replays the original
    // prediction arithmetic, so which tier serves a hit never changes the
    // resulting summary.
    const LeafFit* fit = nullptr;
    LeafFit local;
    if (cache != nullptr) {
      auto it = cache->find(rows.indices());
      if (it != cache->end()) {
        if (stats != nullptr) ++stats->local_hits;
        fit = &it->second;
      } else {
        LeafKey key;  // built once per local miss; shared by Lookup and Insert
        if (shared_cache != nullptr) {
          key = LeafKey{cache_fingerprint, t_index, rows.indices()};
          SharedLeafFit compact;
          if (shared_cache->Lookup(key, &compact) &&
              RehydrateLeafFit(compact, rows, y_old, column_cache, &local)) {
            if (stats != nullptr) ++stats->shared_hits;
            it = cache->emplace(rows.indices(), std::move(local)).first;
            fit = &it->second;
          }
        }
        if (fit == nullptr) {
          CHARLES_ASSIGN_OR_RETURN(
              local, FitLeaf(source, y_old, y_new, rows, transform_attrs, column_cache,
                             stats_workspace, t_index, stats));
          if (stats != nullptr) ++stats->computed;
          if (shared_cache != nullptr) {
            shared_cache->Insert(std::move(key),
                                 SharedLeafFit{local.transform, local.partition_mae,
                                               local.score, local.has_score});
          }
          it = cache->emplace(rows.indices(), std::move(local)).first;
          fit = &it->second;
        }
      }
    } else {
      CHARLES_ASSIGN_OR_RETURN(
          local, FitLeaf(source, y_old, y_new, rows, transform_attrs, column_cache,
                         stats_workspace, t_index, stats));
      if (stats != nullptr) ++stats->computed;
      fit = &local;
    }
    ct.transform = fit->transform;
    ct.partition_mae = fit->partition_mae;
    if (row_free) {
      if (fit->has_score) {
        score_total.Merge(fit->score);
      } else {
        // Cache entries minted before row-free scoring was enabled carry no
        // partials: fold this leaf on the spot — same gather, same block
        // fold, same bits FitLeaf would have stored.
        std::vector<double> y_part(static_cast<size_t>(rows.size()));
        if (rows.size() > 0) {
          kernels::ActiveKernel().gather(y_new.data(), rows.indices().data(),
                                         rows.size(), y_part.data(),
                                         /*dst_stride=*/1);
        }
        score_total.Merge(AccumulateScoreDiffBlocks(
            y_part, fit->predictions, rows.indices(),
            stats_workspace->block_rows, stats_workspace->score_tolerance));
        if (stats != nullptr) ++stats->score_leaf_folds;
      }
    } else {
      for (int64_t r = 0; r < rows.size(); ++r) {
        y_hat[static_cast<size_t>(rows[r])] = fit->predictions[static_cast<size_t>(r)];
      }
    }
    cts.push_back(std::move(ct));
  }

  ChangeSummary summary(std::move(cts), target);
  summary.set_attributes(condition_attrs, transform_attrs);

  // Attach the model tree (condition tree + fitted leaf transforms).
  if (candidate.tree != nullptr) {
    size_t leaf_index = 0;
    auto root = BuildModelTreeNode(candidate.tree->root(), summary.cts(), &leaf_index);
    summary.set_tree(std::make_shared<ModelTree>(std::move(root)));
  }

  if (row_free) {
    if (stats != nullptr) ++stats->score_partials_candidates;
    summary.set_scores(scorer->ScoreFromPartials(summary, score_total));
  } else {
    if (stats != nullptr) ++stats->score_yhat_materializations;
    if (scorer != nullptr) {
      summary.set_scores(scorer->Score(summary, y_hat));
    } else {
      // External callers (tests, baselines) with no run-level scorer: build
      // one for this call, as the pre-partials engine always did.
      Scorer local_scorer(options_, y_old, y_new);
      summary.set_scores(local_scorer.Score(summary, y_hat));
    }
  }
  return summary;
}

Result<SummaryList> CharlesEngine::Find(const Table& source, const Table& target,
                                        SummaryStream* stream,
                                        const StopToken* stop) const {
  return RunPipeline::Run(*this, source, target, stream, stop);
}

std::future<Result<SummaryList>> CharlesEngine::FindAsync(
    const Table& source, const Table& target, SummaryStream* stream,
    const StopToken* stop) const {
  return std::async(std::launch::async, [this, &source, &target, stream, stop]() {
    return Find(source, target, stream, stop);
  });
}

Result<SummaryList> SummarizeChanges(const Table& source, const Table& target,
                                     const CharlesOptions& options) {
  CharlesEngine engine(options);
  return engine.Find(source, target);
}

Result<SummaryList> SummarizeChanges(const Table& source, const Table& target,
                                     const CharlesOptions& options,
                                     EngineContext* context) {
  CharlesEngine engine(options, context);
  return engine.Find(source, target);
}

}  // namespace charles
