#include "core/partition_finder.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <string>

#include "common/logging.h"
#include "ml/kmeans_1d.h"
#include "parallel/parallel_for.h"

namespace charles {

namespace {

/// The T-subset's feature matrix over every source row, from the resolved
/// column cache entries.
Matrix GatherTransformFeatures(const std::vector<const std::vector<double>*>& columns,
                               int64_t num_rows) {
  Matrix x(num_rows, static_cast<int64_t>(columns.size()));
  for (size_t f = 0; f < columns.size(); ++f) {
    for (int64_t r = 0; r < num_rows; ++r) {
      x.At(r, static_cast<int64_t>(f)) = (*columns[f])[static_cast<size_t>(r)];
    }
  }
  return x;
}

/// Predictions of `model` over every source row, reading the feature
/// columns straight from the column cache (no matrix materialization).
/// Every row goes through LinearModel::PredictRow.
std::vector<double> PredictFromCache(const LinearModel& model,
                                     const std::vector<const std::vector<double>*>& columns,
                                     int64_t num_rows) {
  std::vector<double> out(static_cast<size_t>(num_rows));
  std::vector<double> row(columns.size());
  for (int64_t r = 0; r < num_rows; ++r) {
    for (size_t f = 0; f < columns.size(); ++f) {
      row[f] = (*columns[f])[static_cast<size_t>(r)];
    }
    out[static_cast<size_t>(r)] = model.PredictRow(row.data());
  }
  return out;
}

std::string PartitionSignature(const std::vector<DecisionTree::Leaf>& leaves) {
  std::set<std::string> conditions;
  for (const DecisionTree::Leaf& leaf : leaves) {
    conditions.insert(leaf.condition->ToString());
  }
  std::string out;
  for (const std::string& c : conditions) {
    out += c;
    out += ";;";
  }
  return out;
}

}  // namespace

Result<ColumnCache> ColumnCache::Build(const Table& source,
                                       const std::vector<std::string>& attrs) {
  ColumnCache cache;
  for (const std::string& name : attrs) {
    if (cache.columns_.count(name) != 0) continue;
    CHARLES_ASSIGN_OR_RETURN(const Column* col, source.ColumnByName(name));
    CHARLES_ASSIGN_OR_RETURN(std::vector<double> values, col->ToDoubles());
    cache.columns_.emplace(name, std::move(values));
  }
  return cache;
}

std::vector<int> PartitionFinder::CanonicalizeLabels(const std::vector<int>& labels) {
  std::vector<int> canonical(labels.size());
  std::vector<int> remap;
  int next = 0;
  for (size_t i = 0; i < labels.size(); ++i) {
    int label = labels[i];
    if (label >= static_cast<int>(remap.size())) {
      remap.resize(static_cast<size_t>(label) + 1, -1);
    }
    if (remap[static_cast<size_t>(label)] < 0) {
      remap[static_cast<size_t>(label)] = next++;
    }
    canonical[i] = remap[static_cast<size_t>(label)];
  }
  return canonical;
}

Result<PartitionFinder::ResidualClusterings> PartitionFinder::ClusterResiduals(
    const Input& input, const CharlesOptions& options, bool include_delta_signals) {
  if (input.column_cache == nullptr) {
    return Status::InvalidArgument("PartitionFinder: Input::column_cache is required");
  }
  if (input.shortlist_stats == nullptr) {
    return Status::InvalidArgument("PartitionFinder: Input::shortlist_stats is required");
  }
  if (input.shortlist_subset.size() != input.transform_attrs.size()) {
    return Status::InvalidArgument(
        "PartitionFinder: Input::shortlist_subset must map every transform attribute");
  }
  int64_t n = input.source->num_rows();
  if (n == 0) return Status::InvalidArgument("PartitionFinder: empty source");
  if (static_cast<int64_t>(input.y_new->size()) != n) {
    return Status::InvalidArgument("PartitionFinder: y_new size mismatch");
  }
  if (input.y_old != nullptr && static_cast<int64_t>(input.y_old->size()) != n) {
    return Status::InvalidArgument("PartitionFinder: y_old size mismatch");
  }
  std::vector<const std::vector<double>*> columns;
  if (!input.column_cache->ResolveColumns(input.transform_attrs, &columns)) {
    return Status::InvalidArgument(
        "PartitionFinder: Input::column_cache misses a transform attribute");
  }

  // Global fit on T: a p×p sub-solve of the run's shortlist moments; an
  // ill-conditioned or underdetermined system drops to QR over the gathered
  // rows. Either way `predicted` is evaluated row by row through
  // LinearModel::PredictRow.
  Result<LinearModel> global = LinearRegression::FitFromStats(
      *input.shortlist_stats, input.shortlist_subset, input.transform_attrs);
  if (!global.ok()) {
    global = LinearRegression::Fit(GatherTransformFeatures(columns, n), *input.y_new,
                                   input.transform_attrs);
    CHARLES_RETURN_NOT_OK(global.status());
  }
  std::vector<double> predicted = PredictFromCache(*global, columns, n);

  // Change signals to cluster on: the paper's distance-from-the-regression-
  // line, plus raw and relative deltas when requested and available.
  std::vector<std::vector<double>> signals;
  {
    std::vector<double> residuals(static_cast<size_t>(n));
    for (size_t i = 0; i < residuals.size(); ++i) {
      residuals[i] = (*input.y_new)[i] - predicted[i];
    }
    signals.push_back(std::move(residuals));
  }
  if (include_delta_signals && input.y_old != nullptr) {
    std::vector<double> delta(static_cast<size_t>(n));
    std::vector<double> relative(static_cast<size_t>(n));
    for (size_t i = 0; i < delta.size(); ++i) {
      double d = (*input.y_new)[i] - (*input.y_old)[i];
      delta[i] = d;
      double denom = std::abs((*input.y_old)[i]);
      relative[i] = denom > 1e-12 ? d / denom : d;
    }
    signals.push_back(std::move(delta));
    signals.push_back(std::move(relative));
  }

  ResidualClusterings out;
  out.global_model = std::move(*global);
  std::set<std::vector<int>> seen_labelings;
  for (const std::vector<double>& signal : signals) {
    CHARLES_ASSIGN_OR_RETURN(KMeans1DResult clusterings,
                             KMeans1D(signal, options.max_clusters));
    for (const std::vector<int>& labels : clusterings.labels) {
      std::vector<int> canonical = CanonicalizeLabels(labels);
      if (seen_labelings.insert(canonical).second) {
        out.labelings.push_back(std::move(canonical));
      }
    }
  }
  return out;
}

Result<std::vector<PartitionCandidate>> PartitionFinder::InduceCandidates(
    const Table& source, const std::vector<std::vector<int>>& labelings,
    const std::vector<int>& condition_attr_indices, const CharlesOptions& options,
    const TreeAttributeCache* cache, ThreadPool* pool) {
  DecisionTreeOptions tree_options;
  tree_options.max_depth =
      options.tree_max_depth > 0 ? options.tree_max_depth : options.max_condition_attrs;
  tree_options.min_leaf_size = options.min_partition_size;

  RowSet all_rows = RowSet::All(source.num_rows());

  // Tree fits are independent per labeling; the dedup below walks them in
  // labeling order, so the reduction is scheduling-independent.
  struct InducedTree {
    PartitionCandidate candidate;
    std::string signature;
    bool ok = false;
  };
  std::vector<InducedTree> induced = ParallelMap<InducedTree>(
      pool, static_cast<int64_t>(labelings.size()), [&](int64_t li) {
        const std::vector<int>& labels = labelings[static_cast<size_t>(li)];
        InducedTree out;
        Result<DecisionTree> tree_result = DecisionTree::Fit(
            source, all_rows, condition_attr_indices, labels, tree_options, cache);
        if (!tree_result.ok()) return out;
        auto tree = std::make_shared<DecisionTree>(std::move(*tree_result));
        out.candidate.leaves = tree->leaves();
        out.signature = PartitionSignature(out.candidate.leaves);
        out.candidate.k = 1 + *std::max_element(labels.begin(), labels.end());
        out.candidate.label_agreement = tree->training_accuracy();
        out.candidate.tree = std::move(tree);
        out.ok = true;
        return out;
      });

  std::vector<PartitionCandidate> candidates;
  std::set<std::string> seen_signatures;
  for (InducedTree& tree : induced) {
    if (!tree.ok) continue;
    if (!seen_signatures.insert(tree.signature).second) continue;
    candidates.push_back(std::move(tree.candidate));
  }
  return candidates;
}

}  // namespace charles
