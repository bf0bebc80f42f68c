#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/logging.h"

namespace charles {

namespace {

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

/// One attribute's best split at a node; rows are materialized only for the
/// splits some subset takes, after scoring every candidate from
/// histograms/sweeps.
struct SplitChoice {
  double impurity_decrease = -1.0;
  int attr_position = -1;  ///< Index into the builder's cached attributes.
  DecisionTreeNode::SplitKind kind = DecisionTreeNode::SplitKind::kNumericLess;
  double threshold = 0.0;   ///< kNumericLess.
  int code = -1;            ///< kCategoricalEq.
  std::vector<int> codes;   ///< kCategoricalIn.
};

/// The rows reaching one trie node: in table-row order, and per numeric
/// attribute the non-NULL ones in the attribute's presorted order.
struct NodeRows {
  std::vector<int64_t> rows;
  std::vector<int64_t> counts;  ///< rows per label
  /// Indexed by builder attribute position; filled only when the node can
  /// split, and then for the numeric attributes of the subsets that reached
  /// it.
  std::vector<std::vector<int64_t>> sorted;
};

/// Grows one tree per attribute subset over a shared trie (see
/// DecisionTree::FitSubsets). Single-threaded; one builder per labeling.
class TreeBuilder {
 public:
  TreeBuilder(const std::vector<int>& labels, int num_labels,
              const DecisionTreeOptions& options, const TreeAttributeCache& cache,
              const std::vector<std::vector<int>>& attr_subsets)
      : labels_(labels), num_labels_(num_labels), options_(options) {
    // The union of the subsets' attributes, in first-appearance order; each
    // subset keeps its own order as positions into the union.
    std::unordered_map<int, int> position_of;
    for (const std::vector<int>& subset : attr_subsets) {
      std::vector<int> positions;
      for (int col : subset) {
        auto [it, inserted] = position_of.emplace(col, static_cast<int>(attrs_.size()));
        if (inserted) {
          const auto* numeric = cache.Numeric(col);
          attrs_.push_back(AttrRef{numeric != nullptr, numeric,
                                   numeric != nullptr ? nullptr : cache.Categorical(col)});
        }
        positions.push_back(it->second);
      }
      subset_attrs_.push_back(std::move(positions));
    }
    leaf_rows_.resize(attr_subsets.size());
    correct_.resize(attr_subsets.size(), 0);
    side_.resize(labels.size());
    no_counts_.resize(static_cast<size_t>(num_labels_));
    yes_counts_.resize(static_cast<size_t>(num_labels_));
  }

  /// Grows every subset's tree from `rows` (sorted table rows); roots in
  /// subset order.
  std::vector<std::unique_ptr<DecisionTreeNode>> BuildAll(const std::vector<int64_t>& rows) {
    NodeRows root;
    root.rows = rows;
    root.counts.assign(static_cast<size_t>(num_labels_), 0);
    for (int64_t row : rows) {
      ++root.counts[static_cast<size_t>(labels_[static_cast<size_t>(row)])];
    }
    if (CanSplit(root, 0)) {
      root.sorted.resize(attrs_.size());
      for (int64_t row : rows) side_[static_cast<size_t>(row)] = 1;
      for (size_t position = 0; position < attrs_.size(); ++position) {
        if (attrs_[position].numeric) {
          Filter(attrs_[position].num->sorted_rows, 1, &root.sorted[position]);
        }
      }
    }
    std::vector<int> group(subset_attrs_.size());
    for (size_t s = 0; s < group.size(); ++s) group[s] = static_cast<int>(s);
    return Build(root, 0, group);
  }

  /// Leaf rows of subset `s`'s tree in YES-first depth-first order.
  std::vector<RowSet>& leaf_rows(size_t s) { return leaf_rows_[s]; }

  /// Training rows of subset `s`'s tree whose label is their leaf's majority.
  int64_t correct(size_t s) const { return correct_[s]; }

  int64_t split_scorings() const { return split_scorings_; }

 private:
  using NumericAttr = TreeAttributeCache::NumericAttr;
  using CategoricalAttr = TreeAttributeCache::CategoricalAttr;
  struct AttrRef {
    bool numeric;
    const NumericAttr* num;
    const CategoricalAttr* cat;
  };

  /// The nodes of the subsets in `group` (subset indices) at one trie node,
  /// parallel to `group`.
  std::vector<std::unique_ptr<DecisionTreeNode>> Build(const NodeRows& node, int depth,
                                                       const std::vector<int>& group) {
    const std::vector<int64_t>& rows = node.rows;
    const std::vector<int64_t>& counts = node.counts;
    int64_t best_count = -1;
    int majority_label = 0;
    for (int label = 0; label < num_labels_; ++label) {
      int64_t c = counts[static_cast<size_t>(label)];
      if (c > best_count) {
        best_count = c;
        majority_label = label;
      }
    }
    std::vector<std::unique_ptr<DecisionTreeNode>> nodes(group.size());
    for (auto& out : nodes) {
      out = std::make_unique<DecisionTreeNode>();
      out->majority_label = majority_label;
      out->count = static_cast<int64_t>(rows.size());
      out->purity = rows.empty() ? 1.0
                                 : static_cast<double>(best_count) /
                                       static_cast<double>(rows.size());
    }

    std::vector<int> chosen(group.size(), -1);  // attribute position, -1 = leaf
    std::vector<SplitChoice> attr_best;
    if (CanSplit(node, depth)) {
      // Each attribute any subset here can split on is scored once.
      attr_best.resize(attrs_.size());
      std::vector<char> scored(attrs_.size(), 0);
      double parent_gini = Gini(counts, static_cast<int64_t>(rows.size()));
      for (int s : group) {
        for (int position : subset_attrs_[static_cast<size_t>(s)]) {
          if (scored[static_cast<size_t>(position)]) continue;
          scored[static_cast<size_t>(position)] = 1;
          ++split_scorings_;
          SplitChoice& best = attr_best[static_cast<size_t>(position)];
          const AttrRef& ref = attrs_[static_cast<size_t>(position)];
          if (ref.numeric) {
            ScoreNumericSplits(node, counts, parent_gini, position, *ref.num, &best);
          } else {
            ScoreCategoricalSplits(rows, counts, parent_gini, position, *ref.cat, &best);
          }
        }
      }
      // Each subset takes the first strict maximum over its own attributes,
      // in its own order: the split one sweep over them in that order keeps.
      for (size_t i = 0; i < group.size(); ++i) {
        double best_decrease = -1.0;
        for (int position : subset_attrs_[static_cast<size_t>(group[i])]) {
          double decrease = attr_best[static_cast<size_t>(position)].impurity_decrease;
          if (decrease > best_decrease) {
            best_decrease = decrease;
            chosen[i] = position;
          }
        }
        if (best_decrease < options_.min_impurity_decrease) chosen[i] = -1;
      }
    }

    // One recursion per distinct split taken, shared by the subsets taking it.
    std::vector<char> done(group.size(), 0);
    for (size_t i = 0; i < group.size(); ++i) {
      if (chosen[i] < 0) {
        nodes[i]->is_leaf = true;
        leaf_rows_[static_cast<size_t>(group[i])].push_back(RowSet(rows));
        correct_[static_cast<size_t>(group[i])] += best_count;
        continue;
      }
      if (done[i]) continue;
      const SplitChoice& choice = attr_best[static_cast<size_t>(chosen[i])];
      std::vector<size_t> members;
      std::vector<int> subgroup;
      std::vector<char> needed(attrs_.size(), 0);
      for (size_t j = i; j < group.size(); ++j) {
        if (chosen[j] != chosen[i]) continue;
        done[j] = 1;
        members.push_back(j);
        subgroup.push_back(group[j]);
        for (int position : subset_attrs_[static_cast<size_t>(group[j])]) {
          needed[static_cast<size_t>(position)] = 1;
        }
      }
      for (size_t j : members) {
        nodes[j]->is_leaf = false;
        ApplySplit(choice, nodes[j].get());
      }
      // Both children are cut together and each is freed once its subtree
      // is built, so only the sibling pairs along one root-to-node path hold
      // row lists at a time.
      NodeRows yes;
      NodeRows no;
      Partition(node, choice, needed, depth + 1, &yes, &no);
      std::vector<std::unique_ptr<DecisionTreeNode>> yes_children =
          Build(yes, depth + 1, subgroup);
      yes = NodeRows();
      std::vector<std::unique_ptr<DecisionTreeNode>> no_children =
          Build(no, depth + 1, subgroup);
      for (size_t m = 0; m < members.size(); ++m) {
        nodes[members[m]]->yes = std::move(yes_children[m]);
        nodes[members[m]]->no = std::move(no_children[m]);
      }
    }
    return nodes;
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
    int64_t node_total = static_cast<int64_t>(rows.size());

    auto consider = [&](const std::vector<int64_t>& yes_counts, int64_t yes_total,
                        auto&& record) {
      int64_t no_total = node_total - yes_total;
      if (yes_total < options_.min_leaf_size || no_total < options_.min_leaf_size) return;
      for (int label = 0; label < num_labels_; ++label) {
        no_counts_[static_cast<size_t>(label)] =
            node_counts[static_cast<size_t>(label)] - yes_counts[static_cast<size_t>(label)];
      }
      double decrease =
          parent_gini - WeightedChildGini(yes_counts, yes_total, no_counts_, no_total);
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
      for (int l = 0; l < num_labels_; ++l) {
        yes_counts_[static_cast<size_t>(l)] =
            histogram[static_cast<size_t>(code) * static_cast<size_t>(num_labels_) +
                      static_cast<size_t>(l)];
      }
      consider(yes_counts_, by_frequency[i].first, [&] {
        best->kind = DecisionTreeNode::SplitKind::kCategoricalEq;
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
        std::fill(yes_counts_.begin(), yes_counts_.end(), 0);
        int64_t yes_total = 0;
        for (int code : codes) {
          for (int l = 0; l < num_labels_; ++l) {
            yes_counts_[static_cast<size_t>(l)] +=
                histogram[static_cast<size_t>(code) * static_cast<size_t>(num_labels_) +
                          static_cast<size_t>(l)];
          }
          yes_total += code_totals[static_cast<size_t>(code)];
        }
        consider(yes_counts_, yes_total, [&] {
          best->kind = DecisionTreeNode::SplitKind::kCategoricalIn;
          best->codes = codes;
          best->code = -1;
        });
      }
    }
  }

  void ScoreNumericSplits(const NodeRows& node, const std::vector<int64_t>& node_counts,
                          double parent_gini, int attr_position, const NumericAttr& attr,
                          SplitChoice* best) {
    // The node's non-NULL rows in presorted order: the (value, label)
    // sequence of the attribute's global sort restricted to the node.
    const std::vector<int64_t>& sorted = node.sorted[static_cast<size_t>(attr_position)];
    if (sorted.size() < 2) return;
    auto value = [&](size_t i) { return attr.values[static_cast<size_t>(sorted[i])]; };

    // Boundaries between adjacent distinct values.
    boundaries_.clear();  // index i: split between sorted[i-1], sorted[i]
    for (size_t i = 1; i < sorted.size(); ++i) {
      if (value(i - 1) < value(i)) boundaries_.push_back(i);
    }
    if (boundaries_.empty()) return;
    size_t stride = 1;
    if (static_cast<int>(boundaries_.size()) > options_.max_numeric_thresholds) {
      stride = (boundaries_.size() + static_cast<size_t>(options_.max_numeric_thresholds) - 1) /
               static_cast<size_t>(options_.max_numeric_thresholds);
    }

    int64_t node_total = static_cast<int64_t>(node.rows.size());
    std::fill(yes_counts_.begin(), yes_counts_.end(), 0);
    size_t consumed = 0;
    for (size_t b = 0; b < boundaries_.size(); b += stride) {
      size_t boundary = boundaries_[b];
      while (consumed < boundary) {
        ++yes_counts_[static_cast<size_t>(labels_[static_cast<size_t>(sorted[consumed])])];
        ++consumed;
      }
      int64_t yes_total = static_cast<int64_t>(boundary);
      int64_t no_total = node_total - yes_total;  // includes NULL rows
      if (yes_total < options_.min_leaf_size || no_total < options_.min_leaf_size) {
        continue;
      }
      for (int label = 0; label < num_labels_; ++label) {
        no_counts_[static_cast<size_t>(label)] =
            node_counts[static_cast<size_t>(label)] - yes_counts_[static_cast<size_t>(label)];
      }
      double decrease =
          parent_gini - WeightedChildGini(yes_counts_, yes_total, no_counts_, no_total);
      if (decrease > best->impurity_decrease) {
        double lo = value(boundary - 1);
        double hi = value(boundary);
        best->impurity_decrease = decrease;
        best->attr_position = attr_position;
        best->kind = DecisionTreeNode::SplitKind::kNumericLess;
        best->threshold = options_.snap_numeric_thresholds ? NiceThreshold(lo, hi)
                                                           : (lo + hi) / 2.0;
        best->codes.clear();
        best->code = -1;
      }
    }
  }

  /// Fills the node's condition/negation expressions and split metadata.
  void ApplySplit(const SplitChoice& choice, DecisionTreeNode* node) {
    const AttrRef& ref = attrs_[static_cast<size_t>(choice.attr_position)];
    node->split_kind = choice.kind;
    if (choice.kind == DecisionTreeNode::SplitKind::kNumericLess) {
      const NumericAttr& attr = *ref.num;
      node->split_column = attr.name;
      Value threshold = attr.is_integer && choice.threshold == std::floor(choice.threshold)
                            ? Value(static_cast<int64_t>(choice.threshold))
                            : Value(choice.threshold);
      node->split_value = threshold;
      node->condition = MakeColumnCompare(attr.name, CompareOp::kLt, threshold);
      node->negation = MakeColumnCompare(attr.name, CompareOp::kGe, threshold);
    } else if (choice.kind == DecisionTreeNode::SplitKind::kCategoricalEq) {
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

  /// Whether a node at `depth` is scored for a split.
  bool CanSplit(const NodeRows& node, int depth) const {
    int distinct = 0;
    for (int64_t c : node.counts) distinct += c > 0;
    return depth < options_.max_depth && distinct > 1 &&
           static_cast<int64_t>(node.rows.size()) >= 2 * options_.min_leaf_size;
  }

  /// Cuts `node` by `choice` into children at `child_depth`: each side's
  /// rows and label counts and, for a side that can split, the presorted
  /// lists of the `needed` numeric attributes, each filtered from the
  /// parent's so the presorted order carries over.
  void Partition(const NodeRows& node, const SplitChoice& choice,
                 const std::vector<char>& needed, int child_depth, NodeRows* yes,
                 NodeRows* no) {
    const AttrRef& ref = attrs_[static_cast<size_t>(choice.attr_position)];
    if (choice.kind == DecisionTreeNode::SplitKind::kNumericLess) {
      const double* values = ref.num->values.data();
      const char* valid = ref.num->valid.data();
      const double threshold = choice.threshold;
      MarkSides(node.rows, [&](size_t row) { return valid[row] && values[row] < threshold; });
    } else if (choice.kind == DecisionTreeNode::SplitKind::kCategoricalEq) {
      const int* codes = ref.cat->codes.data();
      const int code = choice.code;
      MarkSides(node.rows, [&](size_t row) { return codes[row] == code; });
    } else {
      const int* codes = ref.cat->codes.data();
      std::vector<char> in_set(ref.cat->dict.size(), 0);
      for (int code : choice.codes) in_set[static_cast<size_t>(code)] = 1;
      MarkSides(node.rows, [&](size_t row) {
        return codes[row] >= 0 && in_set[static_cast<size_t>(codes[row])];
      });
    }
    for (NodeRows* child : {yes, no}) {
      const char side = child == yes ? 1 : 0;
      Filter(node.rows, side, &child->rows);
      child->counts.assign(static_cast<size_t>(num_labels_), 0);
      for (int64_t row : child->rows) {
        ++child->counts[static_cast<size_t>(labels_[static_cast<size_t>(row)])];
      }
      if (!CanSplit(*child, child_depth)) continue;
      child->sorted.resize(attrs_.size());
      for (size_t position = 0; position < attrs_.size(); ++position) {
        if (needed[position] && attrs_[position].numeric) {
          Filter(node.sorted[position], side, &child->sorted[position]);
        }
      }
    }
  }

  /// Records in side_ whether each of `rows` takes the YES branch.
  template <typename GoesYes>
  void MarkSides(const std::vector<int64_t>& rows, GoesYes goes_yes) {
    for (int64_t row : rows) {
      side_[static_cast<size_t>(row)] = goes_yes(static_cast<size_t>(row));
    }
  }

  /// The rows of `rows` whose side_ is `side`, in order. Branch-free: every
  /// row is written and the cursor advances only past the kept ones.
  void Filter(const std::vector<int64_t>& rows, char side, std::vector<int64_t>* out) const {
    out->resize(rows.size());
    int64_t* cursor = out->data();
    for (int64_t row : rows) {
      *cursor = row;
      cursor += side_[static_cast<size_t>(row)] == side;
    }
    out->resize(static_cast<size_t>(cursor - out->data()));
  }

  const std::vector<int>& labels_;
  int num_labels_;
  const DecisionTreeOptions& options_;
  std::vector<AttrRef> attrs_;                  ///< union of the subsets' attributes
  std::vector<std::vector<int>> subset_attrs_;  ///< per subset: positions, its order
  std::vector<std::vector<RowSet>> leaf_rows_;  ///< per subset, depth-first
  std::vector<int64_t> correct_;                ///< per subset
  int64_t split_scorings_ = 0;
  /// Per table row: 1 when the row takes the YES branch of the cut being
  /// made (Partition), written for the node's rows only; at the root, 1 for
  /// the training rows.
  std::vector<char> side_;
  /// Scratch of the split sweeps, reused across candidates.
  std::vector<size_t> boundaries_;
  std::vector<int64_t> yes_counts_;
  std::vector<int64_t> no_counts_;
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
  void ApplySplit(const DecisionTreeNode& node, bool yes_branch) {
    if (node.split_kind == DecisionTreeNode::SplitKind::kCategoricalIn) {
      // IN-set constraints stay as opaque conjuncts (they rarely repeat on a
      // path, so bound-merging buys nothing).
      extra_conjuncts_.push_back(yes_branch ? node.condition : node.negation);
      return;
    }
    ColumnConstraint& c = FindOrAdd(
        node.split_column, node.split_kind == DecisionTreeNode::SplitKind::kNumericLess);
    if (node.split_kind == DecisionTreeNode::SplitKind::kNumericLess) {
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

/// Appends the leaves under `node` in YES-first order, taking each leaf's
/// rows from `leaf_rows` (the builder's rows of this tree, same order).
void CollectLeaves(const DecisionTreeNode& node,
                   std::vector<std::pair<const DecisionTreeNode*, bool>>* path,
                   std::vector<RowSet>* leaf_rows, std::vector<DecisionTree::Leaf>* out) {
  if (node.is_leaf) {
    // Rebuild the simplified condition from the branch decisions on the path.
    PathState state;
    for (const auto& [split_node, yes_branch] : *path) {
      state.ApplySplit(*split_node, yes_branch);
    }
    DecisionTree::Leaf leaf;
    leaf.condition = state.BuildCondition();
    leaf.rows = std::move((*leaf_rows)[out->size()]);
    leaf.majority_label = node.majority_label;
    leaf.purity = node.purity;
    out->push_back(std::move(leaf));
    return;
  }
  path->emplace_back(&node, true);
  CollectLeaves(*node.yes, path, leaf_rows, out);
  path->back().second = false;
  CollectLeaves(*node.no, path, leaf_rows, out);
  path->pop_back();
}

int NodeDepth(const DecisionTreeNode& node) {
  if (node.is_leaf) return 0;
  return 1 + std::max(NodeDepth(*node.yes), NodeDepth(*node.no));
}

int NodeLeaves(const DecisionTreeNode& node) {
  if (node.is_leaf) return 1;
  return NodeLeaves(*node.yes) + NodeLeaves(*node.no);
}

}  // namespace

Result<TreeAttributeCache> TreeAttributeCache::Build(
    const Table& table, const std::vector<int>& attr_indices) {
  TreeAttributeCache cache;
  for (int col : attr_indices) {
    if (col < 0 || col >= table.num_columns()) {
      return Status::OutOfRange("TreeAttributeCache: column " + std::to_string(col));
    }
    if (cache.numeric_.count(col) || cache.categorical_.count(col)) continue;
    const Column& column = table.column(col);
    const std::string& name = table.schema().field(col).name;
    if (IsNumeric(column.type())) {
      NumericAttr attr;
      attr.name = name;
      attr.is_integer = column.type() == TypeKind::kInt64;
      attr.values.resize(static_cast<size_t>(column.length()));
      attr.valid.resize(static_cast<size_t>(column.length()));
      for (int64_t r = 0; r < column.length(); ++r) {
        if (column.IsNull(r)) {
          attr.valid[static_cast<size_t>(r)] = 0;
        } else {
          attr.valid[static_cast<size_t>(r)] = 1;
          CHARLES_ASSIGN_OR_RETURN(double v, column.GetValue(r).AsDouble());
          attr.values[static_cast<size_t>(r)] = v;
        }
      }
      attr.sorted_rows.reserve(static_cast<size_t>(column.length()));
      for (int64_t r = 0; r < column.length(); ++r) {
        if (attr.valid[static_cast<size_t>(r)]) attr.sorted_rows.push_back(r);
      }
      std::sort(attr.sorted_rows.begin(), attr.sorted_rows.end(),
                [&attr](int64_t a, int64_t b) {
                  return attr.values[static_cast<size_t>(a)] <
                         attr.values[static_cast<size_t>(b)];
                });
      cache.numeric_.emplace(col, std::move(attr));
    } else {
      CategoricalAttr attr;
      attr.name = name;
      attr.codes.resize(static_cast<size_t>(column.length()), -1);
      std::unordered_map<Value, int, ValueHash> dictionary;
      for (int64_t r = 0; r < column.length(); ++r) {
        if (column.IsNull(r)) continue;
        Value v = column.GetValue(r);
        auto [it, inserted] = dictionary.emplace(v, static_cast<int>(attr.dict.size()));
        if (inserted) attr.dict.push_back(std::move(v));
        attr.codes[static_cast<size_t>(r)] = it->second;
      }
      cache.categorical_.emplace(col, std::move(attr));
    }
  }
  return cache;
}

const TreeAttributeCache::NumericAttr* TreeAttributeCache::Numeric(
    int column_index) const {
  auto it = numeric_.find(column_index);
  return it == numeric_.end() ? nullptr : &it->second;
}

const TreeAttributeCache::CategoricalAttr* TreeAttributeCache::Categorical(
    int column_index) const {
  auto it = categorical_.find(column_index);
  return it == categorical_.end() ? nullptr : &it->second;
}

Result<DecisionTree> DecisionTree::Fit(const Table& table, const RowSet& rows,
                                       const std::vector<int>& attr_indices,
                                       const std::vector<int>& labels,
                                       const DecisionTreeOptions& options,
                                       const TreeAttributeCache* cache) {
  CHARLES_ASSIGN_OR_RETURN(std::vector<DecisionTree> trees,
                           FitSubsets(table, rows, {attr_indices}, labels, options, cache));
  return std::move(trees.front());
}

Result<std::vector<DecisionTree>> DecisionTree::FitSubsets(
    const Table& table, const RowSet& rows,
    const std::vector<std::vector<int>>& attr_subsets, const std::vector<int>& labels,
    const DecisionTreeOptions& options, const TreeAttributeCache* cache,
    int64_t* split_scorings) {
  if (rows.empty()) return Status::InvalidArgument("DecisionTree: no training rows");
  if (static_cast<int64_t>(labels.size()) != table.num_rows()) {
    return Status::InvalidArgument("DecisionTree: labels must cover every table row");
  }
  std::vector<int> all_attrs;
  for (const std::vector<int>& subset : attr_subsets) {
    for (int attr : subset) {
      if (attr < 0 || attr >= table.num_columns()) {
        return Status::OutOfRange("DecisionTree: attribute index " + std::to_string(attr));
      }
      all_attrs.push_back(attr);
    }
  }
  int num_labels = 0;
  for (int64_t row : rows) {
    int label = labels[static_cast<size_t>(row)];
    if (label < 0) return Status::InvalidArgument("DecisionTree: negative label");
    num_labels = std::max(num_labels, label + 1);
  }
  if (num_labels > 4096) {
    return Status::InvalidArgument("DecisionTree: implausibly many labels (" +
                                   std::to_string(num_labels) + ")");
  }

  TreeAttributeCache local_cache;
  if (cache == nullptr) {
    CHARLES_ASSIGN_OR_RETURN(local_cache, TreeAttributeCache::Build(table, all_attrs));
    cache = &local_cache;
  }
  for (int attr : all_attrs) {
    if (cache->Numeric(attr) == nullptr && cache->Categorical(attr) == nullptr) {
      return Status::InvalidArgument("DecisionTree: attribute " + std::to_string(attr) +
                                     " missing from the attribute cache");
    }
  }

  TreeBuilder builder(labels, num_labels, options, *cache, attr_subsets);
  std::vector<std::unique_ptr<DecisionTreeNode>> roots = builder.BuildAll(rows.indices());
  if (split_scorings != nullptr) *split_scorings += builder.split_scorings();

  std::vector<DecisionTree> trees(attr_subsets.size());
  for (size_t s = 0; s < trees.size(); ++s) {
    DecisionTree& tree = trees[s];
    tree.root_ = std::move(roots[s]);
    // One post-build traversal collects the leaves with their simplified
    // path conditions; leaves() then serves every later consumer.
    std::vector<std::pair<const DecisionTreeNode*, bool>> path;
    CollectLeaves(*tree.root_, &path, &builder.leaf_rows(s), &tree.leaves_);
    tree.training_accuracy_ =
        static_cast<double>(builder.correct(s)) / static_cast<double>(rows.size());
  }
  return trees;
}

Result<int> DecisionTree::PredictRow(const Table& table, int64_t row) const {
  const DecisionTreeNode* node = root_.get();
  while (!node->is_leaf) {
    CHARLES_ASSIGN_OR_RETURN(Value v, node->condition->Evaluate(table, row));
    if (v.kind() != TypeKind::kBool) {
      return Status::TypeError("split condition not boolean");
    }
    node = v.boolean() ? node->yes.get() : node->no.get();
  }
  return node->majority_label;
}

int DecisionTree::num_leaves() const { return NodeLeaves(*root_); }
int DecisionTree::depth() const { return NodeDepth(*root_); }

}  // namespace charles
