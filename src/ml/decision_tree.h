#ifndef CHARLES_ML_DECISION_TREE_H_
#define CHARLES_ML_DECISION_TREE_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "expr/expr.h"
#include "table/row_set.h"
#include "table/table.h"

namespace charles {

/// \brief Options for DecisionTree::Fit and DecisionTree::FitSubsets.
struct DecisionTreeOptions {
  /// Maximum tree depth. Depth bounds the number of descriptors per
  /// condition, so this is effectively the paper's condition-complexity cap
  /// (set from CharlesOptions.max_condition_attrs).
  int max_depth = 3;
  /// Minimum rows per leaf.
  int64_t min_leaf_size = 1;
  /// A split must reduce weighted Gini impurity by at least this much.
  double min_impurity_decrease = 1e-9;
  /// Cap on equality-split candidates per categorical attribute (most
  /// frequent values first). Also bounds the size of IN-set splits.
  int max_categorical_values = 32;
  /// Cap on evaluated thresholds per numeric attribute per node; boundaries
  /// are thinned evenly when a node has more distinct values than this.
  int max_numeric_thresholds = 64;
  /// Consider grouped categorical splits (`dept IN ('POL', 'FRS', 'COR')`)
  /// built from values sharing a majority label, alongside single-value
  /// equality splits.
  bool enable_in_splits = true;
  /// Replace raw midpoint thresholds with the "nicest" partition-equivalent
  /// value in the gap (e.g. `exp < 3` instead of `exp < 2.5`) — the
  /// normality desideratum applied where it is free.
  bool snap_numeric_thresholds = true;
};

/// \brief A node of a fitted classification tree.
///
/// Internal nodes carry the YES-branch predicate and its exact negation, so
/// root-to-leaf paths conjoin into clean conditions
/// (`edu = 'MS' AND exp >= 3`).
struct DecisionTreeNode {
  bool is_leaf = true;
  int majority_label = 0;
  /// Fraction of in-node rows carrying the majority label.
  double purity = 1.0;
  int64_t count = 0;

  ExprPtr condition;  ///< YES-branch predicate (internal nodes only).
  ExprPtr negation;   ///< NO-branch predicate, exact complement.
  std::unique_ptr<DecisionTreeNode> yes;
  std::unique_ptr<DecisionTreeNode> no;

  /// \name Split metadata (internal nodes), used to simplify leaf conditions
  /// (e.g. collapsing `exp < 4 AND exp < 2` into `exp < 2`).
  /// @{
  enum class SplitKind { kNumericLess, kCategoricalEq, kCategoricalIn };
  SplitKind split_kind = SplitKind::kNumericLess;
  std::string split_column;
  Value split_value;                ///< Equality value or numeric threshold.
  std::vector<Value> split_values;  ///< IN-set members (kCategoricalIn).
  /// @}
};

/// \brief Decoded column data shared across many tree fits.
///
/// Extracting a column out of Value boxing (raw doubles for numeric
/// attributes, dictionary codes for categoricals) costs O(n) per attribute;
/// the ChARLES engine fits thousands of trees over the same handful of
/// attributes, so it decodes each attribute once and passes the cache to
/// every DecisionTree::FitSubsets.
class TreeAttributeCache {
 public:
  struct NumericAttr {
    std::string name;
    bool is_integer = false;
    std::vector<double> values;  ///< Per table row; undefined where invalid.
    std::vector<char> valid;     ///< 1 = non-NULL.
    /// Valid rows ordered by value; lets every node sweep thresholds in
    /// sorted order without re-sorting (the dominant cost of tree fitting).
    std::vector<int64_t> sorted_rows;
  };
  struct CategoricalAttr {
    std::string name;
    std::vector<int> codes;      ///< Dictionary code per row; -1 = NULL.
    std::vector<Value> dict;     ///< Code -> value.
  };

  /// Decodes the given columns of `table`. Indices must be valid.
  static Result<TreeAttributeCache> Build(const Table& table,
                                          const std::vector<int>& attr_indices);

  /// The decoded attribute for a column index, or nullptr if not cached /
  /// wrong family.
  const NumericAttr* Numeric(int column_index) const;
  const CategoricalAttr* Categorical(int column_index) const;

 private:
  std::unordered_map<int, NumericAttr> numeric_;
  std::unordered_map<int, CategoricalAttr> categorical_;
};

/// \brief CART-style classifier used to *describe* clusters.
///
/// ChARLES clusters rows in residual space and then needs attribute-space
/// conditions that identify each cluster — this tree provides them: fit with
/// cluster ids as labels over the candidate condition attributes, then read
/// each leaf's root path as a partition condition.
class DecisionTree {
 public:
  /// A leaf with its path condition.
  struct Leaf {
    ExprPtr condition;   ///< Conjunction of edge predicates from the root.
    RowSet rows;         ///< Training rows reaching the leaf.
    int majority_label = 0;
    double purity = 1.0;
  };

  /// Fits on `rows` of `table`, using the attributes at `attr_indices` as
  /// split candidates and `labels` (one per *table* row; only entries for
  /// `rows` are read) as classes. When `cache` is non-null it must have been
  /// built over this table and cover every attribute in `attr_indices`; the
  /// fit then skips column decoding entirely. The one-subset case of
  /// FitSubsets.
  static Result<DecisionTree> Fit(const Table& table, const RowSet& rows,
                                  const std::vector<int>& attr_indices,
                                  const std::vector<int>& labels,
                                  const DecisionTreeOptions& options = {},
                                  const TreeAttributeCache* cache = nullptr);

  /// \brief Fits one tree per attribute subset, all on the same `rows` and
  /// `labels`; trees[s] is the tree a CART fit over `attr_subsets[s]` alone
  /// grows.
  ///
  /// The trees grow together over one trie of nodes named by split path:
  /// every subset starts at the root, and subsets that pick the same split
  /// share the children. A node scores each attribute's best split once for
  /// all the subsets that reached it; each subset then takes the first
  /// strict maximum over its own attributes in its own order, which is the
  /// split one sweep over that subset's attributes keeps. Numeric sweeps
  /// walk the node's own presorted attribute lists, filtered in order from
  /// the parent's (the attribute lists of SLIQ, Mehta, Agrawal and
  /// Rissanen, EDBT 1996), so a sweep costs the node's size, not the
  /// table's. When `split_scorings` is
  /// non-null, the number of (node, attribute) best-split computations run is
  /// added to it. Fails if any subset names an invalid attribute.
  static Result<std::vector<DecisionTree>> FitSubsets(
      const Table& table, const RowSet& rows,
      const std::vector<std::vector<int>>& attr_subsets, const std::vector<int>& labels,
      const DecisionTreeOptions& options = {}, const TreeAttributeCache* cache = nullptr,
      int64_t* split_scorings = nullptr);

  const DecisionTreeNode& root() const { return *root_; }

  /// \brief Leaves in left-to-right (YES-first) order, with their simplified
  /// path conditions.
  ///
  /// Collected once at Fit() time (the same traversal also scores training
  /// accuracy), so this accessor is free.
  const std::vector<Leaf>& leaves() const { return leaves_; }

  /// Label of the leaf a row falls into.
  Result<int> PredictRow(const Table& table, int64_t row) const;

  int num_leaves() const;
  int depth() const;

  /// Fraction of training rows whose leaf majority matches their label.
  double training_accuracy() const { return training_accuracy_; }

 private:
  std::unique_ptr<DecisionTreeNode> root_;
  std::vector<Leaf> leaves_;  ///< Collected once at Fit() time.
  double training_accuracy_ = 0.0;
};

}  // namespace charles

#endif  // CHARLES_ML_DECISION_TREE_H_
