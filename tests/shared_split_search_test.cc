#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/partition_finder.h"
#include "ml/decision_tree.h"
#include "parallel/thread_pool.h"
#include "table/table_builder.h"

/// \file
/// Property test of the shared per-labeling split search
/// (DecisionTree::FitSubsets): every subset's tree must equal the tree of
/// an independent fit. The oracle below is a test-local copy of the former
/// per-subset builder, which swept each numeric attribute's global presorted
/// order through a per-node stamp filter; only the node type is renamed
/// (it kept the leaf rows on the node).

namespace charles {
namespace {

namespace oracle {

using SplitKind = DecisionTreeNode::SplitKind;

struct OracleNode {
  bool is_leaf = true;
  int majority_label = 0;
  double purity = 1.0;
  int64_t count = 0;
  RowSet rows;
  ExprPtr condition;
  ExprPtr negation;
  std::unique_ptr<OracleNode> yes;
  std::unique_ptr<OracleNode> no;
  SplitKind split_kind = SplitKind::kNumericLess;
  std::string split_column;
  Value split_value;
  std::vector<Value> split_values;
};

struct OracleLeaf {
  ExprPtr condition;
  RowSet rows;
  int majority_label = 0;
  double purity = 1.0;
};

struct OracleTree {
  std::unique_ptr<OracleNode> root;
  std::vector<OracleLeaf> leaves;
  double training_accuracy = 0.0;
};

/// Gini impurity from a per-label count vector.
double Gini(const std::vector<int64_t>& counts, int64_t total) {
  if (total == 0) return 0.0;
  double sum_sq = 0.0;
  for (int64_t c : counts) {
    double p = static_cast<double>(c) / static_cast<double>(total);
    sum_sq += p * p;
  }
  return 1.0 - sum_sq;
}

double WeightedChildGini(const std::vector<int64_t>& yes_counts, int64_t yes_total,
                         const std::vector<int64_t>& no_counts, int64_t no_total) {
  double total = static_cast<double>(yes_total + no_total);
  return (static_cast<double>(yes_total) * Gini(yes_counts, yes_total) +
          static_cast<double>(no_total) * Gini(no_counts, no_total)) /
         total;
}

/// The "nicest" value t with lo < t <= hi, used as a partition-equivalent
/// numeric threshold (`x < t` splits identically for any t in that range
/// because no data value falls strictly between lo and hi).
double NiceThreshold(double lo, double hi) {
  static const double kLattices[] = {1000, 500, 100, 50, 10, 5, 1, 0.5, 0.1, 0.05, 0.01};
  for (double step : kLattices) {
    // Smallest multiple of `step` strictly greater than lo.
    double candidate = std::floor(lo / step + 1.0) * step;
    if (candidate <= lo) candidate += step;  // floating-point guard
    if (candidate > lo && candidate <= hi) return candidate;
  }
  return (lo + hi) / 2.0;
}

/// One fully-described split choice; rows are materialized only for the
/// winner, after scoring every candidate from histograms/sweeps.
struct SplitChoice {
  double impurity_decrease = -1.0;
  int attr_position = -1;  ///< Index into the builder's cached attributes.
  SplitKind kind = SplitKind::kNumericLess;
  double threshold = 0.0;   ///< kNumericLess.
  int code = -1;            ///< kCategoricalEq.
  std::vector<int> codes;   ///< kCategoricalIn.
};

class TreeBuilder {
 public:
  TreeBuilder(const std::vector<int>& labels, int num_labels,
              const DecisionTreeOptions& options, const TreeAttributeCache& cache,
              const std::vector<int>& attr_indices)
      : labels_(labels), num_labels_(num_labels), options_(options) {
    for (int col : attr_indices) {
      if (const auto* numeric = cache.Numeric(col)) {
        attrs_.push_back(AttrRef{true, numeric, nullptr});
      } else if (const auto* categorical = cache.Categorical(col)) {
        attrs_.push_back(AttrRef{false, nullptr, categorical});
      }
    }
    node_stamp_.assign(labels.size(), 0);
  }

  std::unique_ptr<OracleNode> Build(const std::vector<int64_t>& rows, int depth) {
    auto node = std::make_unique<OracleNode>();
    std::vector<int64_t> counts(static_cast<size_t>(num_labels_), 0);
    for (int64_t row : rows) ++counts[static_cast<size_t>(labels_[static_cast<size_t>(row)])];
    int64_t best_count = -1;
    int distinct = 0;
    for (int label = 0; label < num_labels_; ++label) {
      int64_t c = counts[static_cast<size_t>(label)];
      if (c > 0) ++distinct;
      if (c > best_count) {
        best_count = c;
        node->majority_label = label;
      }
    }
    node->count = static_cast<int64_t>(rows.size());
    node->purity = rows.empty() ? 1.0
                                : static_cast<double>(best_count) /
                                      static_cast<double>(rows.size());

    bool can_split = depth < options_.max_depth && distinct > 1 &&
                     static_cast<int64_t>(rows.size()) >= 2 * options_.min_leaf_size;
    if (can_split) {
      SplitChoice best = FindBestSplit(rows, counts);
      if (best.impurity_decrease >= options_.min_impurity_decrease) {
        ApplySplit(best, rows, node.get());
        std::vector<int64_t> yes_rows;
        std::vector<int64_t> no_rows;
        PartitionRows(best, rows, &yes_rows, &no_rows);
        node->is_leaf = false;
        node->yes = Build(yes_rows, depth + 1);
        node->no = Build(no_rows, depth + 1);
        return node;
      }
    }
    node->is_leaf = true;
    node->rows = RowSet(rows);
    return node;
  }

 private:
  using NumericAttr = TreeAttributeCache::NumericAttr;
  using CategoricalAttr = TreeAttributeCache::CategoricalAttr;
  struct AttrRef {
    bool numeric;
    const NumericAttr* num;
    const CategoricalAttr* cat;
  };

  SplitChoice FindBestSplit(const std::vector<int64_t>& rows,
                            const std::vector<int64_t>& node_counts) {
    SplitChoice best;
    // Stamp the node's rows so numeric sweeps can filter the cache's
    // presorted global order in O(total rows) without clearing a bitmap.
    ++current_stamp_;
    for (int64_t row : rows) node_stamp_[static_cast<size_t>(row)] = current_stamp_;
    double parent_gini = Gini(node_counts, static_cast<int64_t>(rows.size()));
    for (size_t position = 0; position < attrs_.size(); ++position) {
      const AttrRef& ref = attrs_[position];
      if (ref.numeric) {
        ScoreNumericSplits(rows, node_counts, parent_gini, static_cast<int>(position),
                           *ref.num, &best);
      } else {
        ScoreCategoricalSplits(rows, node_counts, parent_gini, static_cast<int>(position),
                               *ref.cat, &best);
      }
    }
    return best;
  }

  void ScoreCategoricalSplits(const std::vector<int64_t>& rows,
                              const std::vector<int64_t>& node_counts,
                              double parent_gini, int attr_position,
                              const CategoricalAttr& attr, SplitChoice* best) {
    // Joint (code, label) histogram over the node's rows, dense over the
    // dictionary; NULLs implicitly fall into the NO side of every candidate.
    size_t dict_size = attr.dict.size();
    std::vector<int64_t> histogram(dict_size * static_cast<size_t>(num_labels_), 0);
    std::vector<int64_t> code_totals(dict_size, 0);
    for (int64_t row : rows) {
      int code = attr.codes[static_cast<size_t>(row)];
      if (code < 0) continue;
      ++histogram[static_cast<size_t>(code) * static_cast<size_t>(num_labels_) +
                  static_cast<size_t>(labels_[static_cast<size_t>(row)])];
      ++code_totals[static_cast<size_t>(code)];
    }
    size_t present_codes = 0;
    for (int64_t total : code_totals) {
      if (total > 0) ++present_codes;
    }
    if (present_codes < 2) return;
    auto code_counts = [&](int code) {
      std::vector<int64_t> counts(static_cast<size_t>(num_labels_));
      for (int l = 0; l < num_labels_; ++l) {
        counts[static_cast<size_t>(l)] =
            histogram[static_cast<size_t>(code) * static_cast<size_t>(num_labels_) +
                      static_cast<size_t>(l)];
      }
      return counts;
    };
    int64_t node_total = static_cast<int64_t>(rows.size());

    auto consider = [&](const std::vector<int64_t>& yes_counts, int64_t yes_total,
                        auto&& record) {
      int64_t no_total = node_total - yes_total;
      if (yes_total < options_.min_leaf_size || no_total < options_.min_leaf_size) return;
      std::vector<int64_t> no_counts(static_cast<size_t>(num_labels_));
      for (int label = 0; label < num_labels_; ++label) {
        no_counts[static_cast<size_t>(label)] =
            node_counts[static_cast<size_t>(label)] - yes_counts[static_cast<size_t>(label)];
      }
      double decrease =
          parent_gini - WeightedChildGini(yes_counts, yes_total, no_counts, no_total);
      if (decrease > best->impurity_decrease) {
        best->impurity_decrease = decrease;
        best->attr_position = attr_position;
        record();
      }
    };

    // Equality splits, capped at the most frequent codes.
    std::vector<std::pair<int64_t, int>> by_frequency;  // (count, code)
    for (size_t code = 0; code < dict_size; ++code) {
      if (code_totals[code] > 0) {
        by_frequency.emplace_back(code_totals[code], static_cast<int>(code));
      }
    }
    std::sort(by_frequency.begin(), by_frequency.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    });
    size_t eq_limit = std::min(by_frequency.size(),
                               static_cast<size_t>(options_.max_categorical_values));
    for (size_t i = 0; i < eq_limit; ++i) {
      int code = by_frequency[i].second;
      consider(code_counts(code), by_frequency[i].first, [&] {
        best->kind = SplitKind::kCategoricalEq;
        best->code = code;
        best->codes.clear();
      });
    }

    // IN-set splits: group codes by their in-node majority label. Groups are
    // tried smallest-first so that of two complementary splits with equal
    // impurity decrease, the one listing fewer values wins (deterministically):
    // `dept IN ('POL','FRS','COR')` reads better than the 5-value complement.
    if (options_.enable_in_splits) {
      std::unordered_map<int, std::vector<int>> by_majority;  // label -> codes
      for (size_t code = 0; code < dict_size; ++code) {
        if (code_totals[code] == 0) continue;
        int majority = 0;
        int64_t top = -1;
        for (int label = 0; label < num_labels_; ++label) {
          int64_t c = histogram[code * static_cast<size_t>(num_labels_) +
                                static_cast<size_t>(label)];
          if (c > top) {
            top = c;
            majority = label;
          }
        }
        by_majority[majority].push_back(static_cast<int>(code));
      }
      std::vector<std::pair<int, std::vector<int>>> groups(by_majority.begin(),
                                                           by_majority.end());
      for (auto& [label, codes] : groups) std::sort(codes.begin(), codes.end());
      std::sort(groups.begin(), groups.end(), [](const auto& a, const auto& b) {
        if (a.second.size() != b.second.size()) return a.second.size() < b.second.size();
        return a.second < b.second;
      });
      for (auto& [label, codes] : groups) {
        if (codes.size() < 2 || codes.size() >= present_codes ||
            codes.size() > static_cast<size_t>(options_.max_categorical_values)) {
          continue;
        }
        std::vector<int64_t> yes_counts(static_cast<size_t>(num_labels_), 0);
        int64_t yes_total = 0;
        for (int code : codes) {
          for (int l = 0; l < num_labels_; ++l) {
            yes_counts[static_cast<size_t>(l)] +=
                histogram[static_cast<size_t>(code) * static_cast<size_t>(num_labels_) +
                          static_cast<size_t>(l)];
          }
          yes_total += code_totals[static_cast<size_t>(code)];
        }
        std::vector<int> codes_copy = codes;
        consider(yes_counts, yes_total, [&] {
          best->kind = SplitKind::kCategoricalIn;
          best->codes = codes_copy;
          best->code = -1;
        });
      }
    }
  }

  void ScoreNumericSplits(const std::vector<int64_t>& rows,
                          const std::vector<int64_t>& node_counts, double parent_gini,
                          int attr_position, const NumericAttr& attr, SplitChoice* best) {
    // Stream the node's (value, label) pairs in presorted order (the cache
    // keeps a per-attribute global sort; node membership is a stamp check).
    std::vector<std::pair<double, int>> pairs;
    pairs.reserve(rows.size());
    for (int64_t row : attr.sorted_rows) {
      if (node_stamp_[static_cast<size_t>(row)] != current_stamp_) continue;
      pairs.emplace_back(attr.values[static_cast<size_t>(row)],
                         labels_[static_cast<size_t>(row)]);
    }
    if (pairs.size() < 2) return;

    // Boundaries between adjacent distinct values.
    std::vector<size_t> boundaries;  // index i: split between pairs[i-1], pairs[i]
    for (size_t i = 1; i < pairs.size(); ++i) {
      if (pairs[i - 1].first < pairs[i].first) boundaries.push_back(i);
    }
    if (boundaries.empty()) return;
    size_t stride = 1;
    if (static_cast<int>(boundaries.size()) > options_.max_numeric_thresholds) {
      stride = (boundaries.size() + static_cast<size_t>(options_.max_numeric_thresholds) - 1) /
               static_cast<size_t>(options_.max_numeric_thresholds);
    }

    int64_t node_total = static_cast<int64_t>(rows.size());
    std::vector<int64_t> left_counts(static_cast<size_t>(num_labels_), 0);
    size_t consumed = 0;
    for (size_t b = 0; b < boundaries.size(); b += stride) {
      size_t boundary = boundaries[b];
      while (consumed < boundary) {
        ++left_counts[static_cast<size_t>(pairs[consumed].second)];
        ++consumed;
      }
      int64_t yes_total = static_cast<int64_t>(boundary);
      int64_t no_total = node_total - yes_total;  // includes NULL rows
      if (yes_total < options_.min_leaf_size || no_total < options_.min_leaf_size) {
        continue;
      }
      std::vector<int64_t> no_counts(static_cast<size_t>(num_labels_));
      for (int label = 0; label < num_labels_; ++label) {
        no_counts[static_cast<size_t>(label)] =
            node_counts[static_cast<size_t>(label)] - left_counts[static_cast<size_t>(label)];
      }
      double decrease =
          parent_gini - WeightedChildGini(left_counts, yes_total, no_counts, no_total);
      if (decrease > best->impurity_decrease) {
        double lo = pairs[boundary - 1].first;
        double hi = pairs[boundary].first;
        best->impurity_decrease = decrease;
        best->attr_position = attr_position;
        best->kind = SplitKind::kNumericLess;
        best->threshold = options_.snap_numeric_thresholds ? NiceThreshold(lo, hi)
                                                           : (lo + hi) / 2.0;
        best->codes.clear();
        best->code = -1;
      }
    }
  }

  /// Fills the node's condition/negation expressions and split metadata.
  void ApplySplit(const SplitChoice& choice, const std::vector<int64_t>& rows,
                  OracleNode* node) {
    (void)rows;
    const AttrRef& ref = attrs_[static_cast<size_t>(choice.attr_position)];
    node->split_kind = choice.kind;
    if (choice.kind == SplitKind::kNumericLess) {
      const NumericAttr& attr = *ref.num;
      node->split_column = attr.name;
      Value threshold = attr.is_integer && choice.threshold == std::floor(choice.threshold)
                            ? Value(static_cast<int64_t>(choice.threshold))
                            : Value(choice.threshold);
      node->split_value = threshold;
      node->condition = MakeColumnCompare(attr.name, CompareOp::kLt, threshold);
      node->negation = MakeColumnCompare(attr.name, CompareOp::kGe, threshold);
    } else if (choice.kind == SplitKind::kCategoricalEq) {
      const CategoricalAttr& attr = *ref.cat;
      node->split_column = attr.name;
      node->split_value = attr.dict[static_cast<size_t>(choice.code)];
      node->condition = MakeColumnCompare(attr.name, CompareOp::kEq, node->split_value);
      node->negation = MakeColumnCompare(attr.name, CompareOp::kNe, node->split_value);
    } else {
      const CategoricalAttr& attr = *ref.cat;
      node->split_column = attr.name;
      node->split_values.clear();
      for (int code : choice.codes) {
        node->split_values.push_back(attr.dict[static_cast<size_t>(code)]);
      }
      node->condition = MakeIn(attr.name, node->split_values);
      node->negation = MakeNot(MakeIn(attr.name, node->split_values));
    }
  }

  void PartitionRows(const SplitChoice& choice, const std::vector<int64_t>& rows,
                     std::vector<int64_t>* yes_rows, std::vector<int64_t>* no_rows) {
    const AttrRef& ref = attrs_[static_cast<size_t>(choice.attr_position)];
    if (choice.kind == SplitKind::kNumericLess) {
      const NumericAttr& attr = *ref.num;
      for (int64_t row : rows) {
        bool yes = attr.valid[static_cast<size_t>(row)] &&
                   attr.values[static_cast<size_t>(row)] < choice.threshold;
        (yes ? yes_rows : no_rows)->push_back(row);
      }
    } else if (choice.kind == SplitKind::kCategoricalEq) {
      const CategoricalAttr& attr = *ref.cat;
      for (int64_t row : rows) {
        bool yes = attr.codes[static_cast<size_t>(row)] == choice.code;
        (yes ? yes_rows : no_rows)->push_back(row);
      }
    } else {
      const CategoricalAttr& attr = *ref.cat;
      for (int64_t row : rows) {
        int code = attr.codes[static_cast<size_t>(row)];
        bool yes = code >= 0 && std::binary_search(choice.codes.begin(),
                                                   choice.codes.end(), code);
        (yes ? yes_rows : no_rows)->push_back(row);
      }
    }
  }

  const std::vector<int>& labels_;
  int num_labels_;
  const DecisionTreeOptions& options_;
  std::vector<AttrRef> attrs_;
  std::vector<int> node_stamp_;  ///< Stamp per table row; see FindBestSplit.
  int current_stamp_ = 0;
};

/// Accumulated constraints on one column along a root-to-leaf path. Merging
/// constraints keeps leaf conditions minimal: `exp < 4 AND exp < 2` becomes
/// `exp < 2`, and an equality supersedes prior inequalities on the column.
struct ColumnConstraint {
  std::string column;
  bool numeric = false;
  std::optional<Value> lower;  // from NO branches: col >= v (keep max)
  std::optional<Value> upper;  // from YES branches: col < v (keep min)
  std::optional<Value> equals;
  std::vector<Value> not_equals;
};

class PathState {
 public:
  void ApplySplit(const OracleNode& node, bool yes_branch) {
    if (node.split_kind == SplitKind::kCategoricalIn) {
      // IN-set constraints stay as opaque conjuncts (they rarely repeat on a
      // path, so bound-merging buys nothing).
      extra_conjuncts_.push_back(yes_branch ? node.condition : node.negation);
      return;
    }
    ColumnConstraint& c = FindOrAdd(
        node.split_column, node.split_kind == SplitKind::kNumericLess);
    if (node.split_kind == SplitKind::kNumericLess) {
      if (yes_branch) {
        if (!c.upper.has_value() || node.split_value < *c.upper) {
          c.upper = node.split_value;
        }
      } else {
        if (!c.lower.has_value() || node.split_value > *c.lower) {
          c.lower = node.split_value;
        }
      }
    } else {
      if (yes_branch) {
        c.equals = node.split_value;
        c.not_equals.clear();
      } else if (!c.equals.has_value()) {
        c.not_equals.push_back(node.split_value);
      }
      // A NO branch below an established equality is implied; nothing to add.
    }
  }

  ExprPtr BuildCondition() const {
    std::vector<ExprPtr> conjuncts;
    for (const ColumnConstraint& c : constraints_) {
      if (c.equals.has_value()) {
        conjuncts.push_back(MakeColumnCompare(c.column, CompareOp::kEq, *c.equals));
        continue;
      }
      for (const Value& v : c.not_equals) {
        conjuncts.push_back(MakeColumnCompare(c.column, CompareOp::kNe, v));
      }
      if (c.lower.has_value()) {
        conjuncts.push_back(MakeColumnCompare(c.column, CompareOp::kGe, *c.lower));
      }
      if (c.upper.has_value()) {
        conjuncts.push_back(MakeColumnCompare(c.column, CompareOp::kLt, *c.upper));
      }
    }
    for (const ExprPtr& extra : extra_conjuncts_) conjuncts.push_back(extra);
    return MakeAnd(std::move(conjuncts));
  }

 private:
  ColumnConstraint& FindOrAdd(const std::string& column, bool numeric) {
    for (ColumnConstraint& c : constraints_) {
      if (c.column == column) return c;
    }
    constraints_.push_back(ColumnConstraint{column, numeric, {}, {}, {}, {}});
    return constraints_.back();
  }

  std::deque<ColumnConstraint> constraints_;  // path order
  std::vector<ExprPtr> extra_conjuncts_;
};

void CollectLeaves(const OracleNode& node,
                   std::vector<std::pair<const OracleNode*, bool>>* path,
                   std::vector<OracleLeaf>* out) {
  if (node.is_leaf) {
    // Rebuild the simplified condition from the branch decisions on the path.
    PathState state;
    for (const auto& [split_node, yes_branch] : *path) {
      state.ApplySplit(*split_node, yes_branch);
    }
    OracleLeaf leaf;
    leaf.condition = state.BuildCondition();
    leaf.rows = node.rows;
    leaf.majority_label = node.majority_label;
    leaf.purity = node.purity;
    out->push_back(std::move(leaf));
    return;
  }
  path->emplace_back(&node, true);
  CollectLeaves(*node.yes, path, out);
  path->back().second = false;
  CollectLeaves(*node.no, path, out);
  path->pop_back();
}

/// The former DecisionTree::Fit after validation, over a prebuilt cache.
OracleTree Fit(const RowSet& rows, const std::vector<int>& attr_indices,
               const std::vector<int>& labels, const DecisionTreeOptions& options,
               const TreeAttributeCache* cache) {
  int num_labels = 0;
  for (int64_t row : rows) {
    num_labels = std::max(num_labels, labels[static_cast<size_t>(row)] + 1);
  }
  OracleTree tree;
  TreeBuilder builder(labels, num_labels, options, *cache, attr_indices);
  tree.root = builder.Build(rows.indices(), 0);

  // Single post-build traversal: collect the leaves (with simplified path
  // conditions) and score training accuracy off them. leaves() then serves
  // every later consumer — the engine's partition candidates used to walk
  // the tree a second time for the same list.
  {
    std::vector<std::pair<const OracleNode*, bool>> path;
    CollectLeaves(*tree.root, &path, &tree.leaves);
  }
  int64_t correct = 0;
  for (const OracleLeaf& leaf : tree.leaves) {
    for (int64_t row : leaf.rows) {
      if (labels[static_cast<size_t>(row)] == leaf.majority_label) ++correct;
    }
  }
  tree.training_accuracy =
      rows.size() > 0 ? static_cast<double>(correct) / static_cast<double>(rows.size())
                      : 0.0;
  return tree;
}

}  // namespace oracle

// --- Random inputs -----------------------------------------------------------

constexpr int kCodes = 7;  // more than the test's max_categorical_values

/// A random table with numeric ties and NULLs, an integer column, a
/// categorical with kCodes values (and NULLs), a two-value categorical, and
/// exact duplicates of a numeric and of a categorical column, so attributes
/// tie on impurity decrease.
Table RandomTable(std::mt19937* rng, int64_t rows) {
  Schema schema = Schema::Make({Field{"x", TypeKind::kDouble, true},
                                Field{"n", TypeKind::kInt64, true},
                                Field{"x_dup", TypeKind::kDouble, true},
                                Field{"cat", TypeKind::kString, true},
                                Field{"cat_dup", TypeKind::kString, true},
                                Field{"flag", TypeKind::kString, true}})
                      .ValueOrDie();
  static const char* kNames[kCodes] = {"a", "b", "c", "d", "e", "f", "g"};
  std::uniform_int_distribution<int> small(0, 11);
  std::uniform_int_distribution<int> code(0, kCodes - 1);
  std::uniform_int_distribution<int> percent(0, 99);
  TableBuilder builder(schema);
  for (int64_t r = 0; r < rows; ++r) {
    Value x = percent(*rng) < 8 ? Value::Null() : Value(0.5 * small(*rng));
    Value n = percent(*rng) < 5 ? Value::Null() : Value(static_cast<int64_t>(small(*rng)));
    Value cat = percent(*rng) < 6 ? Value::Null() : Value(kNames[code(*rng)]);
    Value flag = Value(percent(*rng) < 50 ? "yes" : "no");
    CHARLES_CHECK_OK(builder.AppendRow({x, n, x, cat, cat, flag}));
  }
  return builder.Finish().ValueOrDie();
}

/// k labels that follow the attributes, with noise so that trees grow deep.
std::vector<int> RandomLabels(std::mt19937* rng, const Table& table, int k) {
  std::uniform_int_distribution<int> percent(0, 99);
  std::uniform_int_distribution<int> any(0, k - 1);
  std::vector<int> labels(static_cast<size_t>(table.num_rows()));
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    Value x = table.GetValue(r, 0);
    Value cat = table.GetValue(r, 3);
    int signal = (x.is_null() ? 3 : static_cast<int>(x.AsDouble().ValueOrDie())) +
                 (cat.is_null() ? 0 : static_cast<int>(cat.str()[0] - 'a') / 2);
    labels[static_cast<size_t>(r)] = percent(*rng) < 20 ? any(*rng) : signal % k;
  }
  return labels;
}

/// Every subset of up to three of `num_attrs` attributes, each also in
/// reverse order (the order breaks ties between equal attributes).
std::vector<std::vector<int>> SmallSubsets(int num_attrs) {
  std::vector<std::vector<int>> subsets;
  for (int mask = 1; mask < (1 << num_attrs); ++mask) {
    std::vector<int> subset;
    for (int a = 0; a < num_attrs; ++a) {
      if (mask & (1 << a)) subset.push_back(a);
    }
    if (subset.size() > 3) continue;
    subsets.push_back(subset);
    if (subset.size() > 1) subsets.emplace_back(subset.rbegin(), subset.rend());
  }
  return subsets;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

std::string Render(const ExprPtr& expr) { return expr ? expr->ToString() : "<null>"; }

void ExpectSameNodes(const oracle::OracleNode& expected, const DecisionTreeNode& actual,
                     const std::string& where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(expected.is_leaf, actual.is_leaf);
  EXPECT_EQ(expected.majority_label, actual.majority_label);
  EXPECT_TRUE(SameBits(expected.purity, actual.purity));
  EXPECT_EQ(expected.count, actual.count);
  if (expected.is_leaf) return;
  EXPECT_EQ(expected.split_kind, actual.split_kind);
  EXPECT_EQ(expected.split_column, actual.split_column);
  EXPECT_EQ(expected.split_value, actual.split_value);
  EXPECT_EQ(expected.split_values, actual.split_values);
  EXPECT_EQ(Render(expected.condition), Render(actual.condition));
  EXPECT_EQ(Render(expected.negation), Render(actual.negation));
  ExpectSameNodes(*expected.yes, *actual.yes, where + "Y");
  ExpectSameNodes(*expected.no, *actual.no, where + "N");
}

void ExpectSameTree(const oracle::OracleTree& expected, const DecisionTree& actual) {
  ExpectSameNodes(*expected.root, actual.root(), "root:");
  ASSERT_EQ(expected.leaves.size(), actual.leaves().size());
  for (size_t l = 0; l < expected.leaves.size(); ++l) {
    SCOPED_TRACE("leaf " + std::to_string(l));
    const oracle::OracleLeaf& e = expected.leaves[l];
    const DecisionTree::Leaf& a = actual.leaves()[l];
    EXPECT_EQ(e.condition->ToString(), a.condition->ToString());
    EXPECT_EQ(e.rows, a.rows);
    EXPECT_EQ(e.majority_label, a.majority_label);
    EXPECT_TRUE(SameBits(e.purity, a.purity));
  }
  EXPECT_TRUE(SameBits(expected.training_accuracy, actual.training_accuracy()));
}

TEST(SharedSplitSearchTest, EverySubsetTreeMatchesAnIndependentFit) {
  std::mt19937 rng(20261019);
  const std::vector<std::vector<int>> subsets = SmallSubsets(6);
  int64_t shared_scorings = 0;
  int64_t independent_scorings = 0;
  for (int table_case = 0; table_case < 3; ++table_case) {
    Table table = RandomTable(&rng, 160 + 40 * table_case);
    std::vector<int> all_attrs = {0, 1, 2, 3, 4, 5};
    TreeAttributeCache cache = TreeAttributeCache::Build(table, all_attrs).ValueOrDie();
    // The last case trains on a subset of the rows.
    RowSet rows = RowSet::All(table.num_rows());
    if (table_case == 2) {
      std::vector<int64_t> some;
      for (int64_t r = 0; r < table.num_rows(); ++r) {
        if (r % 3 != 1) some.push_back(r);
      }
      rows = RowSet(std::move(some));
    }
    for (int64_t min_leaf : {1, 5}) {
      DecisionTreeOptions options;
      options.min_leaf_size = min_leaf;
      options.max_numeric_thresholds = 3;  // fewer than the distinct values
      options.max_categorical_values = 4;  // fewer than kCodes
      for (int k = 1; k <= 6; ++k) {
        SCOPED_TRACE("table " + std::to_string(table_case) + ", min_leaf " +
                     std::to_string(min_leaf) + ", k " + std::to_string(k));
        std::vector<int> labels = RandomLabels(&rng, table, k);
        std::vector<DecisionTree> trees =
            DecisionTree::FitSubsets(table, rows, subsets, labels, options, &cache,
                                     &shared_scorings)
                .ValueOrDie();
        ASSERT_EQ(trees.size(), subsets.size());
        for (size_t s = 0; s < subsets.size(); ++s) {
          std::string name;
          for (int a : subsets[s]) name += std::to_string(a);
          SCOPED_TRACE("subset " + name);
          ExpectSameTree(oracle::Fit(rows, subsets[s], labels, options, &cache), trees[s]);
          // The one-subset call is the same builder.
          DecisionTree::FitSubsets(table, rows, {subsets[s]}, labels, options, &cache,
                                   &independent_scorings)
              .ValueOrDie();
        }
      }
    }
  }
  // Sharing never scores more than the independent fits do.
  EXPECT_GT(shared_scorings, 0);
  EXPECT_LT(shared_scorings, independent_scorings);
}

TEST(SharedSplitSearchTest, FitIsTheOneSubsetCase) {
  std::mt19937 rng(7);
  Table table = RandomTable(&rng, 120);
  std::vector<int> labels = RandomLabels(&rng, table, 3);
  for (const std::vector<int>& subset : SmallSubsets(6)) {
    DecisionTree single =
        DecisionTree::Fit(table, RowSet::All(table.num_rows()), subset, labels).ValueOrDie();
    TreeAttributeCache cache = TreeAttributeCache::Build(table, subset).ValueOrDie();
    ExpectSameTree(oracle::Fit(RowSet::All(table.num_rows()), subset, labels, {}, &cache),
                   single);
  }
}

TEST(SharedSplitSearchTest, OneSubsetInduceCandidatesIsASliceOfTheSharedCall) {
  std::mt19937 rng(11);
  Table table = RandomTable(&rng, 240);
  std::vector<std::vector<int>> labelings;
  for (int k = 1; k <= 6; ++k) {
    // Two labelings per k, one a repeat, so the within-subset dedup runs.
    labelings.push_back(RandomLabels(&rng, table, k));
    labelings.push_back(labelings.back());
  }
  const std::vector<std::vector<int>> subsets = SmallSubsets(6);
  TreeAttributeCache cache =
      TreeAttributeCache::Build(table, {0, 1, 2, 3, 4, 5}).ValueOrDie();
  for (int64_t min_leaf : {1, 5}) {
    CharlesOptions options;
    options.min_partition_size = min_leaf;
    ThreadPool pool(3);
    PartitionFinder::SubsetCandidates shared =
        PartitionFinder::InduceSubsetCandidates(table, labelings, subsets, options, &cache,
                                                &pool)
            .ValueOrDie();
    ASSERT_EQ(shared.candidates.size(), subsets.size());
    EXPECT_EQ(shared.trees_induced,
              static_cast<int64_t>(subsets.size() * labelings.size()));
    for (size_t s = 0; s < subsets.size(); ++s) {
      SCOPED_TRACE("subset " + std::to_string(s) + ", min_leaf " + std::to_string(min_leaf));
      std::vector<PartitionCandidate> single =
          PartitionFinder::InduceCandidates(table, labelings, subsets[s], options, &cache,
                                            nullptr)
              .ValueOrDie();
      const std::vector<PartitionCandidate>& slice = shared.candidates[s];
      ASSERT_EQ(single.size(), slice.size());
      ASSERT_EQ(shared.signatures[s].size(), slice.size());
      EXPECT_LT(slice.size(), labelings.size());  // the repeats were dropped
      for (size_t c = 0; c < single.size(); ++c) {
        EXPECT_EQ(single[c].k, slice[c].k);
        EXPECT_TRUE(SameBits(single[c].label_agreement, slice[c].label_agreement));
        ASSERT_EQ(single[c].leaves.size(), slice[c].leaves.size());
        std::string signature;
        for (size_t l = 0; l < single[c].leaves.size(); ++l) {
          EXPECT_EQ(single[c].leaves[l].condition->ToString(),
                    slice[c].leaves[l].condition->ToString());
          EXPECT_EQ(single[c].leaves[l].rows, slice[c].leaves[l].rows);
          signature += slice[c].leaves[l].condition->ToString() + ";;";
        }
        EXPECT_EQ(shared.signatures[s][c], signature);
      }
    }
  }
}

}  // namespace
}  // namespace charles
