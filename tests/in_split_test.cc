#include <gtest/gtest.h>

#include "ml/decision_tree.h"
#include "table/table_builder.h"

namespace charles {
namespace {

/// Eight departments, three of which share one behaviour: exactly the shape
/// that needs a grouped IN-split (a depth-3 tree of equality splits cannot
/// carve out a 3-of-8 set and still split on anything else).
Table Departments(int per_dept) {
  Schema schema = Schema::Make({
                                   Field{"dept", TypeKind::kString, true},
                                   Field{"grade", TypeKind::kInt64, true},
                               })
                      .ValueOrDie();
  static const char* kDepts[] = {"POL", "FRS", "COR", "HHS",
                                 "DOT", "LIB", "FIN", "TEC"};
  TableBuilder builder(schema);
  for (int d = 0; d < 8; ++d) {
    for (int i = 0; i < per_dept; ++i) {
      CHARLES_CHECK_OK(builder.AppendRow(
          {Value(kDepts[d]), Value(static_cast<int64_t>(10 + (i * 7) % 26))}));
    }
  }
  return builder.Finish().ValueOrDie();
}

std::vector<int> PublicSafetyLabels(const Table& t) {
  std::vector<int> labels(static_cast<size_t>(t.num_rows()), 0);
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    std::string dept = t.GetValue(r, 0).str();
    labels[static_cast<size_t>(r)] =
        (dept == "POL" || dept == "FRS" || dept == "COR") ? 1 : 0;
  }
  return labels;
}

TEST(InSplitTest, GroupedSplitSeparatesValueSet) {
  Table t = Departments(10);
  std::vector<int> labels = PublicSafetyLabels(t);
  DecisionTreeOptions options;
  options.max_depth = 1;  // only an IN-split can do it in one level
  DecisionTree tree =
      DecisionTree::Fit(t, RowSet::All(t.num_rows()), {0}, labels, options).ValueOrDie();
  EXPECT_DOUBLE_EQ(tree.training_accuracy(), 1.0);
  EXPECT_EQ(tree.num_leaves(), 2);
  const auto& leaves = tree.leaves();
  bool found_in = false;
  for (const auto& leaf : leaves) {
    std::string text = leaf.condition->ToString();
    // The positive IN leaf (the negated complement also mentions "IN").
    if (text.find(" IN (") != std::string::npos &&
        text.find("NOT") == std::string::npos) {
      found_in = true;
      EXPECT_EQ(leaf.majority_label, 1);
      EXPECT_EQ(leaf.rows.size(), 30);
      // The smaller of the two complementary sets is listed.
      EXPECT_EQ(text, "dept IN ('POL', 'FRS', 'COR')");
    }
  }
  EXPECT_TRUE(found_in) << "expected a dept IN (...) split";
}

TEST(InSplitTest, DisabledInSplitsFallBackToEquality) {
  Table t = Departments(10);
  std::vector<int> labels = PublicSafetyLabels(t);
  DecisionTreeOptions options;
  options.max_depth = 1;
  options.enable_in_splits = false;
  DecisionTree tree =
      DecisionTree::Fit(t, RowSet::All(t.num_rows()), {0}, labels, options).ValueOrDie();
  // A single equality split cannot reach 100% on a 3-of-8 grouping.
  EXPECT_LT(tree.training_accuracy(), 1.0);
  for (const auto& leaf : tree.leaves()) {
    EXPECT_EQ(leaf.condition->ToString().find(" IN ("), std::string::npos);
  }
}

TEST(InSplitTest, ConditionsEvaluateToTheirPartitions) {
  Table t = Departments(6);
  std::vector<int> labels = PublicSafetyLabels(t);
  DecisionTreeOptions options;
  options.max_depth = 2;
  DecisionTree tree =
      DecisionTree::Fit(t, RowSet::All(t.num_rows()), {0, 1}, labels, options).ValueOrDie();
  for (const auto& leaf : tree.leaves()) {
    RowSet filtered = FilterRows(t, *leaf.condition).ValueOrDie();
    EXPECT_EQ(filtered, leaf.rows) << leaf.condition->ToString();
  }
}

TEST(InSplitTest, MixedInAndNumericSplits) {
  // Label 2 needs dept IN {POL,FRS,COR}; labels 0/1 split on grade < 23
  // among the rest — the Montgomery policy shape.
  Table t = Departments(12);
  std::vector<int> labels(static_cast<size_t>(t.num_rows()), 0);
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    std::string dept = t.GetValue(r, 0).str();
    int64_t grade = t.GetValue(r, 1).int64();
    if (dept == "POL" || dept == "FRS" || dept == "COR") {
      labels[static_cast<size_t>(r)] = 2;
    } else {
      labels[static_cast<size_t>(r)] = grade >= 23 ? 1 : 0;
    }
  }
  DecisionTreeOptions options;
  options.max_depth = 2;
  DecisionTree tree =
      DecisionTree::Fit(t, RowSet::All(t.num_rows()), {0, 1}, labels, options).ValueOrDie();
  EXPECT_DOUBLE_EQ(tree.training_accuracy(), 1.0);
  EXPECT_EQ(tree.num_leaves(), 3);
}

TEST(InSplitTest, NegatedInConditionRendersAsNotIn) {
  Table t = Departments(8);
  std::vector<int> labels = PublicSafetyLabels(t);
  DecisionTreeOptions options;
  options.max_depth = 1;
  DecisionTree tree =
      DecisionTree::Fit(t, RowSet::All(t.num_rows()), {0}, labels, options).ValueOrDie();
  bool found_not_in = false;
  for (const auto& leaf : tree.leaves()) {
    if (leaf.condition->ToString().find("NOT (") != std::string::npos) {
      found_not_in = true;
      EXPECT_EQ(leaf.majority_label, 0);
    }
  }
  EXPECT_TRUE(found_not_in);
}

}  // namespace
}  // namespace charles
