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
  CHARLES_ASSIGN_OR_RETURN(
      SubsetCandidates induced,
      InduceSubsetCandidates(source, labelings, {condition_attr_indices}, options, cache,
                             pool));
  return std::move(induced.candidates.front());
}

Result<PartitionFinder::SubsetCandidates> PartitionFinder::InduceSubsetCandidates(
    const Table& source, const std::vector<std::vector<int>>& labelings,
    const std::vector<std::vector<int>>& condition_subsets, const CharlesOptions& options,
    const TreeAttributeCache* cache, ThreadPool* pool) {
  DecisionTreeOptions tree_options;
  tree_options.max_depth =
      options.tree_max_depth > 0 ? options.tree_max_depth : options.max_condition_attrs;
  tree_options.min_leaf_size = options.min_partition_size;

  TreeAttributeCache local_cache;
  if (cache == nullptr) {
    std::vector<int> all_attrs;
    for (const std::vector<int>& subset : condition_subsets) {
      all_attrs.insert(all_attrs.end(), subset.begin(), subset.end());
    }
    CHARLES_ASSIGN_OR_RETURN(local_cache, TreeAttributeCache::Build(source, all_attrs));
    cache = &local_cache;
  }
  RowSet all_rows = RowSet::All(source.num_rows());

  // One task per labeling fits every C-subset's tree over one shared trie;
  // the reduction below walks subsets, then labelings, in order, so it is
  // scheduling-independent.
  struct InducedTree {
    PartitionCandidate candidate;
    std::string set_signature;    ///< sorted distinct leaf conditions
    std::string order_signature;  ///< leaf conditions in leaf order
  };
  struct LabelingTrees {
    std::vector<InducedTree> per_subset;  ///< empty when the fit failed
    int64_t split_scorings = 0;
  };
  std::vector<LabelingTrees> induced = ParallelMap<LabelingTrees>(
      pool, static_cast<int64_t>(labelings.size()), [&](int64_t li) {
        const std::vector<int>& labels = labelings[static_cast<size_t>(li)];
        LabelingTrees out;
        Result<std::vector<DecisionTree>> trees =
            DecisionTree::FitSubsets(source, all_rows, condition_subsets, labels,
                                     tree_options, cache, &out.split_scorings);
        if (!trees.ok()) return out;
        int k = 1 + *std::max_element(labels.begin(), labels.end());
        out.per_subset.reserve(trees->size());
        for (DecisionTree& fitted : *trees) {
          auto tree = std::make_shared<DecisionTree>(std::move(fitted));
          InducedTree induced_tree;
          // Each leaf condition is rendered once, for both signatures.
          std::set<std::string> conditions;
          for (const DecisionTree::Leaf& leaf : tree->leaves()) {
            std::string condition = leaf.condition->ToString();
            induced_tree.order_signature += condition;
            induced_tree.order_signature += ";;";
            conditions.insert(std::move(condition));
          }
          for (const std::string& condition : conditions) {
            induced_tree.set_signature += condition;
            induced_tree.set_signature += ";;";
          }
          induced_tree.candidate.leaves = tree->leaves();
          induced_tree.candidate.k = k;
          induced_tree.candidate.label_agreement = tree->training_accuracy();
          induced_tree.candidate.tree = std::move(tree);
          out.per_subset.push_back(std::move(induced_tree));
        }
        return out;
      });

  SubsetCandidates result;
  result.candidates.resize(condition_subsets.size());
  result.signatures.resize(condition_subsets.size());
  for (const LabelingTrees& labeling : induced) {
    result.trees_induced += static_cast<int64_t>(labeling.per_subset.size());
    result.split_scorings += labeling.split_scorings;
  }
  for (size_t ci = 0; ci < condition_subsets.size(); ++ci) {
    std::set<std::string> seen_signatures;
    for (LabelingTrees& labeling : induced) {
      if (labeling.per_subset.empty()) continue;
      InducedTree& tree = labeling.per_subset[ci];
      if (!seen_signatures.insert(std::move(tree.set_signature)).second) continue;
      result.candidates[ci].push_back(std::move(tree.candidate));
      result.signatures[ci].push_back(std::move(tree.order_signature));
    }
  }
  return result;
}

}  // namespace charles
