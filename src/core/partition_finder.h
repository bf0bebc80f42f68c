#ifndef CHARLES_CORE_PARTITION_FINDER_H_
#define CHARLES_CORE_PARTITION_FINDER_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/options.h"
#include "linalg/suffstats.h"
#include "ml/decision_tree.h"
#include "ml/linear_regression.h"
#include "table/table.h"

namespace charles {

class ThreadPool;

/// \brief Read-only cache of full columns converted to doubles.
///
/// Phase 1 gathers the per-T feature matrix once per transformation subset;
/// subsets overlap heavily, so without a cache the same column is converted
/// from its Value representation O(2^|A_tran|) times. Build() converts each
/// shortlisted column exactly once; lookups afterwards are immutable and
/// therefore safe from any number of concurrent workers.
class ColumnCache {
 public:
  ColumnCache() = default;

  /// Converts every named column of `source` to doubles. Fails if a column
  /// is missing or non-numeric.
  static Result<ColumnCache> Build(const Table& source,
                                   const std::vector<std::string>& attrs);

  /// The cached values for `name` (size = source rows), or nullptr if the
  /// column was not part of Build().
  const std::vector<double>* Find(const std::string& name) const {
    auto it = columns_.find(name);
    return it == columns_.end() ? nullptr : &it->second;
  }

  /// Resolves every name to its cached column, in order. Returns false —
  /// leaving `out` unspecified — if any column is missing, which callers
  /// treat as an error. The shared front half of every gather/accumulate
  /// loop over cached columns.
  bool ResolveColumns(const std::vector<std::string>& names,
                      std::vector<const std::vector<double>*>* out) const {
    out->clear();
    out->reserve(names.size());
    for (const std::string& name : names) {
      const std::vector<double>* values = Find(name);
      if (values == nullptr) return false;
      out->push_back(values);
    }
    return true;
  }

  /// Inserts (or replaces) one column directly. This is how a remote worker
  /// reconstructs the coordinator's cache from shipped bytes — values arrive
  /// already converted, so routing them through Build() (which needs a
  /// Table) would be a pointless re-conversion. Not safe concurrently with
  /// readers; populate fully, then share read-only like a Build() result.
  void Insert(std::string name, std::vector<double> values) {
    columns_[std::move(name)] = std::move(values);
  }

  /// Number of cached columns.
  size_t size() const { return columns_.size(); }

 private:
  std::unordered_map<std::string, std::vector<double>> columns_;
};

/// \brief One candidate partitioning of the data: a fitted condition tree
/// whose leaves are the partitions.
struct PartitionCandidate {
  /// The condition-induction tree (kept for model-tree rendering).
  std::shared_ptr<const DecisionTree> tree;
  /// Its leaves: condition + row set per partition, YES-first order.
  std::vector<DecisionTree::Leaf> leaves;
  /// Number of clusters in the labeling this partitioning describes.
  int k = 0;
  /// How faithfully the tree's leaves reproduce the cluster labels.
  double label_agreement = 0.0;
};

/// \brief Partition discovery (paper, §2 "Partition discovery").
///
/// For a fixed pair (C, T) of condition/transformation attribute subsets:
///  1. fit one global linear regression of the new target values on T over
///     the source snapshot, from the run's shortlist moments;
///  2. cluster the *signed residuals* (each row's distance from the
///     regression line) by exact 1-D k-means (KMeans1D) for
///     k = 1..max_clusters: one sorted DP per signal yields every k;
///  3. for each clustering, fit a small CART tree over the attributes in C
///     that predicts cluster membership — each leaf's root path is a
///     candidate partition condition.
///
/// Step 3 resolves the paper's cyclic dependency between patterns and
/// clusters: rows are grouped by how they *changed* (residual space) and the
/// groups are then *described* in attribute space. Structurally identical
/// partitionings arising from different k are deduplicated.
///
/// Beyond the paper's residual signal, step 2 also clusters two further
/// change signals — the raw delta (new − old) and the relative delta — and
/// pools the resulting labelings (deduplicated). The paper's §2 explicitly
/// frames its partitioning as one proof-of-concept choice; the extra signals
/// recover policies whose groups are separated by absolute or proportional
/// change but overlap in residual space. Ranking remains the sole arbiter.
///
/// Steps 1–2 depend only on T, step 3 only on C and the labeling; the engine
/// therefore calls ClusterResiduals once per T and InduceSubsetCandidates
/// once over the pooled labelings, fitting every C-subset of a labeling in
/// one task.
class PartitionFinder {
 public:
  struct Input {
    /// Source snapshot; row i aligns with y_old[i]/y_new[i].
    const Table* source = nullptr;
    /// Old target values, one per source row.
    const std::vector<double>* y_old = nullptr;
    /// New target values, one per source row.
    const std::vector<double>* y_new = nullptr;
    /// Names of the transformation attributes T (numeric source columns);
    /// empty means intercept-only transformations.
    std::vector<std::string> transform_attrs;
    /// Required: the run's converted columns, covering (at least)
    /// `transform_attrs`. Predictions (and the QR fallback's feature matrix)
    /// read from it. Must stay valid for the duration of the call.
    const ColumnCache* column_cache = nullptr;
    /// Required: OLS moments over the run's full transformation shortlist
    /// and y_new, covering every source row. Each T-subset's global model
    /// is a p×p sub-solve of these moments instead of an O(n·p²) QR; only an
    /// ill-conditioned or underdetermined sub-solve drops to QR. The engine
    /// accumulates them once per run and shares them across all T-subset
    /// workers. `shortlist_subset` maps `transform_attrs` (in order) to the
    /// stats' feature indices. The stats must stay valid for the duration of
    /// the call.
    const SufficientStats* shortlist_stats = nullptr;
    std::vector<int> shortlist_subset;
  };

  /// Result of steps 1–2: the global model and the canonical labelings
  /// (CanonicalizeLabels) of every signal and k, in signal then k order,
  /// deduplicated. Fewer than signals × max_clusters when a signal has fewer
  /// distinct values than max_clusters or two clusterings coincide.
  struct ResidualClusterings {
    LinearModel global_model;
    std::vector<std::vector<int>> labelings;
  };

  /// Steps 1–2: global fit on T, exact 1-D k-means of each change signal. The
  /// delta/relative-delta signals are T-independent; pass
  /// include_delta_signals = false on all but the first call of a T sweep to
  /// avoid recomputing them. A null `column_cache` or `shortlist_stats`, or
  /// a `shortlist_subset` that does not match `transform_attrs`, fails with
  /// InvalidArgument naming the field.
  static Result<ResidualClusterings> ClusterResiduals(const Input& input,
                                                      const CharlesOptions& options,
                                                      bool include_delta_signals = true);

  /// Step 3 for one C-subset: induce condition trees over
  /// `condition_attr_indices` for every row labeling; structurally identical
  /// partitionings are deduplicated within the call. The one-subset case of
  /// InduceSubsetCandidates (same `cache` and `pool` contract).
  static Result<std::vector<PartitionCandidate>> InduceCandidates(
      const Table& source, const std::vector<std::vector<int>>& labelings,
      const std::vector<int>& condition_attr_indices, const CharlesOptions& options,
      const TreeAttributeCache* cache = nullptr, ThreadPool* pool = nullptr);

  /// Step 3 over every C-subset at once.
  struct SubsetCandidates {
    /// Per C-subset, in the given order: its candidates in labeling order,
    /// deduplicated within the subset by their set of leaf conditions.
    std::vector<std::vector<PartitionCandidate>> candidates;
    /// Per candidate: its leaf conditions joined in leaf order (parallel to
    /// `candidates`), the engine's cross-subset dedup key.
    std::vector<std::vector<std::string>> signatures;
    /// Trees fitted: subsets × labelings whose fit succeeded.
    int64_t trees_induced = 0;
    /// (node, attribute) best-split computations run (DecisionTree::FitSubsets).
    int64_t split_scorings = 0;
  };

  /// Fits every C-subset's tree of one labeling in one DecisionTree::FitSubsets
  /// call, one labeling per task. `cache` (optional) must cover every
  /// subset's attributes; the engine shares one across the run. `pool`
  /// (optional) fits labelings in parallel; the per-subset dedup walks
  /// labelings in order, so the result is identical to the serial one.
  /// Callers already running inside a pool task should pass nullptr. A
  /// labeling whose fit fails (e.g. a negative label) contributes no
  /// candidates.
  static Result<SubsetCandidates> InduceSubsetCandidates(
      const Table& source, const std::vector<std::vector<int>>& labelings,
      const std::vector<std::vector<int>>& condition_subsets, const CharlesOptions& options,
      const TreeAttributeCache* cache = nullptr, ThreadPool* pool = nullptr);

  /// Renumbers labels in first-appearance order so structurally identical
  /// clusterings compare equal.
  static std::vector<int> CanonicalizeLabels(const std::vector<int>& labels);
};

}  // namespace charles

#endif  // CHARLES_CORE_PARTITION_FINDER_H_
