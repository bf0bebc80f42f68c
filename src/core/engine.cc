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

/// The shared half of both BuildSummary overloads: one CT per candidate
/// leaf from its fit (in leaf order), the attribute lists, and the model
/// tree. Scores are left to the caller.
ChangeSummary AssembleSummary(const std::string& target, int64_t num_rows,
                              const PartitionCandidate& candidate,
                              const std::vector<const SharedLeafFit*>& fits,
                              const std::vector<std::string>& transform_attrs,
                              const std::vector<std::string>& condition_attrs) {
  std::vector<ConditionalTransform> cts;
  cts.reserve(candidate.leaves.size());
  for (size_t i = 0; i < candidate.leaves.size(); ++i) {
    const DecisionTree::Leaf& leaf = candidate.leaves[i];
    ConditionalTransform ct;
    ct.condition = leaf.condition;
    ct.rows = leaf.rows;
    ct.coverage = leaf.rows.Coverage(num_rows);
    ct.transform = fits[i]->transform;
    ct.partition_mae = fits[i]->partition_mae;
    cts.push_back(std::move(ct));
  }
  ChangeSummary summary(std::move(cts), target);
  summary.set_attributes(condition_attrs, transform_attrs);
  if (candidate.tree != nullptr) {
    size_t leaf_index = 0;
    auto root = BuildModelTreeNode(candidate.tree->root(), summary.cts(), &leaf_index);
    summary.set_tree(std::make_shared<ModelTree>(std::move(root)));
  }
  return summary;
}

}  // namespace

Result<SharedLeafFit> CharlesEngine::FitLeaf(
    const Table& source, const std::vector<double>& y_old,
    const std::vector<double>& y_new, const RowSet& rows,
    const std::vector<std::string>& transform_attrs,
    const LeafStatsWorkspace* ws, std::vector<double>* predictions) const {
  const std::string& target = options_.target_attribute;
  const kernels::Kernel& kernel = kernels::ActiveKernel();
  std::vector<double> y_part(static_cast<size_t>(rows.size()));
  if (rows.size() > 0) {
    kernel.gather(y_new.data(), rows.indices().data(), rows.size(), y_part.data(),
                  /*dst_stride=*/1);
  }
  std::vector<double> y_hat;
  // Canonical partials of the leaf's ŷ against y_new (Σ|y − ŷ|, exact count),
  // folded block by block with the run scorer's band so BuildSummary can
  // merge per-leaf partials in leaf order.
  auto fold_score = [&] {
    if (ws->score_folds != nullptr) ++*ws->score_folds;
    return AccumulateScoreDiffBlocks(y_part, y_hat, rows.indices(), ws->block_rows,
                                     ws->score_tolerance);
  };

  // No-change detection: the whole partition kept its old value. The engine
  // already folded max |y_new − y_old| per leaf (max is exactly
  // associative, so every producer agrees); external callers scan.
  bool unchanged = true;
  if (ws != nullptr) {
    unchanged = ws->max_abs_delta <= options_.numeric_tolerance;
  } else {
    for (int64_t row : rows) {
      if (std::abs(y_new[static_cast<size_t>(row)] -
                   y_old[static_cast<size_t>(row)]) > options_.numeric_tolerance) {
        unchanged = false;
        break;
      }
    }
  }
  SharedLeafFit fit;
  if (unchanged) {
    fit.transform = LinearTransform::NoChange(target);
    y_hat.reserve(static_cast<size_t>(rows.size()));
    for (int64_t row : rows) y_hat.push_back(y_old[static_cast<size_t>(row)]);
    // A no-change leaf still contributes canonical partials: every row lands
    // inside the band (|y_new − y_old| ≤ numeric_tolerance ≤ the band), but
    // the Σ chain must replay the canonical block order so the merged score
    // bits stay canonical.
    if (ws != nullptr) fit.score = fold_score();
    if (predictions != nullptr) *predictions = std::move(y_hat);
    return fit;
  }

  // Transformation discovery: per-partition OLS on T. The engine solves the
  // T-subset's normal equations from the leaf's moments — one scan per leaf
  // serves every T-subset. Ill-conditioned or underdetermined systems fail
  // the solve and drop to the row-level QR ladder below, which is also the
  // path of external callers.
  LinearModel model;
  bool have_model = false;
  if (ws != nullptr && ws->moments != nullptr) {
    Result<LinearModel> fast =
        LinearRegression::FitFromStats(*ws->moments, *ws->t_subset, transform_attrs);
    if (fast.ok()) {
      model = std::move(*fast);
      have_model = true;
    }
  }

  // Feature matrix for snapping, predictions, and the QR path: from the
  // run's pre-converted columns when available, else per-leaf conversion.
  Matrix x(rows.size(), static_cast<int64_t>(transform_attrs.size()));
  for (size_t f = 0; f < transform_attrs.size(); ++f) {
    const std::vector<double>* full =
        ws != nullptr ? ws->columns->Find(transform_attrs[f]) : nullptr;
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
  if (!have_model) {
    CHARLES_ASSIGN_OR_RETURN(model, LinearRegression::Fit(x, y_part, transform_attrs));
  }

  // Exact-L1 evaluation. On the engine path every L1 evaluation below —
  // SnapModel's accuracy-guard baseline and the final fit MAE — goes
  // through the canonical block fold, which a distributed kScorePartials
  // round reproduces bit-for-bit from shard partials. The shard-merged
  // evidence is only valid for the model its probe solved, i.e. when the
  // fast solve above succeeded. External callers keep the serial sums.
  const ScorePartials* score_evidence =
      ws != nullptr && have_model ? ws->score_evidence : nullptr;
  NormalityOptions normality = options_.normality;
  normality.exactness_tolerance =
      std::max(normality.exactness_tolerance, options_.numeric_tolerance);
  SnapErrorSpec error_spec;
  ErrorPartials evidence_error;
  if (ws != nullptr) {
    if (score_evidence != nullptr) {
      evidence_error = score_evidence->error();
      error_spec.baseline = &evidence_error;
    }
    error_spec.rows = &rows.indices();
    error_spec.block_rows = ws->block_rows;
  }
  const LinearModel pre_snap = model;
  // SnapModel hands back the final model's predictions as ŷ.
  model = SnapModel(model, x, y_part, normality, ws != nullptr ? &error_spec : nullptr,
                    &y_hat);
  // The moments only estimate the L1 error; the reported MAE is always
  // exact. On the engine path it is the canonical score fold's projection —
  // served straight from the shard-merged partials when snapping left the
  // probed model untouched, re-folded centrally (bit-identically)
  // otherwise; external callers recompute it serially.
  const bool snap_noop =
      score_evidence != nullptr &&
      std::memcmp(&model.intercept, &pre_snap.intercept, sizeof(double)) == 0 &&
      model.coefficients.size() == pre_snap.coefficients.size() &&
      (model.coefficients.empty() ||
       std::memcmp(model.coefficients.data(), pre_snap.coefficients.data(),
                   model.coefficients.size() * sizeof(double)) == 0);
  if (snap_noop) {
    fit.score = *score_evidence;
    model.mae = fit.score.mae();
  } else if (ws != nullptr) {
    fit.score = fold_score();
    model.mae = fit.score.mae();
  } else {
    model.mae = MeanAbsoluteError(y_hat, y_part);
  }
  fit.partition_mae = model.mae;
  fit.transform = LinearTransform::Linear(target, std::move(model));
  if (predictions != nullptr) *predictions = std::move(y_hat);
  return fit;
}

Result<ChangeSummary> CharlesEngine::BuildSummary(
    const Table& source, const std::vector<double>& y_old,
    const std::vector<double>& y_new, const PartitionCandidate& candidate,
    const std::vector<std::string>& transform_attrs,
    const std::vector<std::string>& condition_attrs) const {
  std::vector<SharedLeafFit> fits;
  fits.reserve(candidate.leaves.size());
  std::vector<double> y_hat = y_old;
  std::vector<double> predictions;
  for (const DecisionTree::Leaf& leaf : candidate.leaves) {
    CHARLES_ASSIGN_OR_RETURN(
        SharedLeafFit fit, FitLeaf(source, y_old, y_new, leaf.rows, transform_attrs,
                                   /*workspace=*/nullptr, &predictions));
    for (int64_t r = 0; r < leaf.rows.size(); ++r) {
      y_hat[static_cast<size_t>(leaf.rows[r])] = predictions[static_cast<size_t>(r)];
    }
    fits.push_back(std::move(fit));
  }
  std::vector<const SharedLeafFit*> fit_ptrs;
  fit_ptrs.reserve(fits.size());
  for (const SharedLeafFit& fit : fits) fit_ptrs.push_back(&fit);
  ChangeSummary summary =
      AssembleSummary(options_.target_attribute, source.num_rows(), candidate,
                      fit_ptrs, transform_attrs, condition_attrs);
  Scorer scorer(options_, y_old, y_new);
  summary.set_scores(scorer.Score(summary, y_hat));
  return summary;
}

ChangeSummary CharlesEngine::BuildSummary(
    const PartitionCandidate& candidate, const std::vector<const SharedLeafFit*>& fits,
    const std::vector<std::string>& transform_attrs,
    const std::vector<std::string>& condition_attrs, const Scorer& scorer) const {
  ChangeSummary summary =
      AssembleSummary(options_.target_attribute, scorer.num_rows(), candidate, fits,
                      transform_attrs, condition_attrs);
  ScorePartials score_total;
  for (const SharedLeafFit* fit : fits) score_total.Merge(fit->score);
  summary.set_scores(scorer.ScoreFromPartials(summary, score_total));
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
