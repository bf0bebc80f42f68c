#include "ml/decision_tree.h"

#include <gtest/gtest.h>

#include "table/table_builder.h"

namespace charles {
namespace {

Table EmployeeTable() {
  Schema schema = Schema::Make({
                                   Field{"edu", TypeKind::kString, true},
                                   Field{"exp", TypeKind::kInt64, true},
                                   Field{"salary", TypeKind::kDouble, true},
                               })
                      .ValueOrDie();
  TableBuilder builder(schema);
  // Mirrors Example 1's structure: PhD / MS-senior / MS-junior / BS.
  CHARLES_CHECK_OK(builder.AppendRow({Value("PhD"), Value(2), Value(230000.0)}));
  CHARLES_CHECK_OK(builder.AppendRow({Value("PhD"), Value(3), Value(250000.0)}));
  CHARLES_CHECK_OK(builder.AppendRow({Value("MS"), Value(5), Value(160000.0)}));
  CHARLES_CHECK_OK(builder.AppendRow({Value("MS"), Value(1), Value(130000.0)}));
  CHARLES_CHECK_OK(builder.AppendRow({Value("BS"), Value(2), Value(110000.0)}));
  CHARLES_CHECK_OK(builder.AppendRow({Value("MS"), Value(4), Value(150000.0)}));
  CHARLES_CHECK_OK(builder.AppendRow({Value("BS"), Value(3), Value(120000.0)}));
  CHARLES_CHECK_OK(builder.AppendRow({Value("MS"), Value(4), Value(150000.0)}));
  CHARLES_CHECK_OK(builder.AppendRow({Value("PhD"), Value(1), Value(210000.0)}));
  return builder.Finish().ValueOrDie();
}

TEST(DecisionTreeTest, PureLabelsYieldSingleLeaf) {
  Table t = EmployeeTable();
  std::vector<int> labels(9, 0);
  DecisionTree tree = DecisionTree::Fit(t, RowSet::All(9), {0, 1}, labels).ValueOrDie();
  EXPECT_EQ(tree.num_leaves(), 1);
  EXPECT_EQ(tree.depth(), 0);
  const auto& leaves = tree.leaves();
  ASSERT_EQ(leaves.size(), 1u);
  EXPECT_TRUE(leaves[0].condition->Equals(*MakeTrue()));
  EXPECT_EQ(leaves[0].rows.size(), 9);
  EXPECT_DOUBLE_EQ(tree.training_accuracy(), 1.0);
}

TEST(DecisionTreeTest, SeparatesByCategoricalAttribute) {
  Table t = EmployeeTable();
  // Label = 1 for PhD rows (0, 1, 8).
  std::vector<int> labels = {1, 1, 0, 0, 0, 0, 0, 0, 1};
  DecisionTree tree = DecisionTree::Fit(t, RowSet::All(9), {0}, labels).ValueOrDie();
  EXPECT_EQ(tree.num_leaves(), 2);
  EXPECT_DOUBLE_EQ(tree.training_accuracy(), 1.0);
  const auto& leaves = tree.leaves();
  // One leaf must be exactly the PhD rows.
  bool found = false;
  for (const auto& leaf : leaves) {
    if (leaf.rows == RowSet({0, 1, 8})) {
      found = true;
      EXPECT_EQ(leaf.condition->ToString(), "edu = 'PhD'");
      EXPECT_EQ(leaf.majority_label, 1);
    }
  }
  EXPECT_TRUE(found);
}

TEST(DecisionTreeTest, NumericThresholdSplit) {
  Table t = EmployeeTable();
  // Label by experience >= 4 (rows 2, 5, 7).
  std::vector<int> labels = {0, 0, 1, 0, 0, 1, 0, 1, 0};
  DecisionTree tree = DecisionTree::Fit(t, RowSet::All(9), {1}, labels).ValueOrDie();
  EXPECT_DOUBLE_EQ(tree.training_accuracy(), 1.0);
  const auto& leaves = tree.leaves();
  ASSERT_EQ(leaves.size(), 2u);
  // The threshold must cleanly separate exp<=3 from exp>=4: any t in (3,4].
  for (const auto& leaf : leaves) {
    if (leaf.majority_label == 1) {
      EXPECT_EQ(leaf.rows, RowSet({2, 5, 7}));
      EXPECT_EQ(leaf.condition->ToString(), "exp >= 4");
    }
  }
}

TEST(DecisionTreeTest, Example1StructureRecovered) {
  Table t = EmployeeTable();
  // Labels: PhD=0, MS&exp>=3=1, MS&exp<3=2, BS=3 (the paper's four groups).
  std::vector<int> labels = {0, 0, 1, 2, 3, 1, 3, 1, 0};
  DecisionTree tree = DecisionTree::Fit(t, RowSet::All(9), {0, 1}, labels).ValueOrDie();
  EXPECT_EQ(tree.num_leaves(), 4);
  EXPECT_DOUBLE_EQ(tree.training_accuracy(), 1.0);
  // Partition row sets must match the planted groups exactly.
  std::vector<RowSet> expected = {RowSet({0, 1, 8}), RowSet({2, 5, 7}), RowSet({3}),
                                  RowSet({4, 6})};
  const auto& leaves = tree.leaves();
  for (const RowSet& group : expected) {
    bool found = false;
    for (const auto& leaf : leaves) {
      if (leaf.rows == group) found = true;
    }
    EXPECT_TRUE(found) << "missing partition " << group.ToString();
  }
}

TEST(DecisionTreeTest, PathConditionsAreSimplified) {
  Table t = EmployeeTable();
  // Force two numeric splits on the same column: labels by exp bands
  // {<2}, {2..3}, {>=4}.
  std::vector<int> labels = {1, 1, 2, 0, 1, 2, 1, 2, 0};
  DecisionTreeOptions options;
  options.max_depth = 3;
  DecisionTree tree = DecisionTree::Fit(t, RowSet::All(9), {1}, labels, options).ValueOrDie();
  EXPECT_DOUBLE_EQ(tree.training_accuracy(), 1.0);
  for (const auto& leaf : tree.leaves()) {
    // A simplified band condition never repeats a bound direction: at most
    // one `<` and one `>=` per column, so at most 2 descriptors here.
    EXPECT_LE(leaf.condition->NumDescriptors(), 2) << leaf.condition->ToString();
  }
}

TEST(DecisionTreeTest, RespectsMaxDepth) {
  Table t = EmployeeTable();
  std::vector<int> labels = {0, 0, 1, 2, 3, 1, 3, 1, 0};
  DecisionTreeOptions options;
  options.max_depth = 1;
  DecisionTree tree = DecisionTree::Fit(t, RowSet::All(9), {0, 1}, labels, options).ValueOrDie();
  EXPECT_LE(tree.depth(), 1);
  EXPECT_LE(tree.num_leaves(), 2);
  EXPECT_LT(tree.training_accuracy(), 1.0);  // 4 classes cannot fit in 2 leaves
}

TEST(DecisionTreeTest, RespectsMinLeafSize) {
  Table t = EmployeeTable();
  std::vector<int> labels = {0, 0, 1, 2, 3, 1, 3, 1, 0};
  DecisionTreeOptions options;
  options.min_leaf_size = 3;
  DecisionTree tree = DecisionTree::Fit(t, RowSet::All(9), {0, 1}, labels, options).ValueOrDie();
  for (const auto& leaf : tree.leaves()) {
    EXPECT_GE(leaf.rows.size(), 3);
  }
}

TEST(DecisionTreeTest, PredictRowFollowsPath) {
  Table t = EmployeeTable();
  std::vector<int> labels = {1, 1, 0, 0, 0, 0, 0, 0, 1};
  DecisionTree tree = DecisionTree::Fit(t, RowSet::All(9), {0}, labels).ValueOrDie();
  for (int64_t row = 0; row < 9; ++row) {
    EXPECT_EQ(*tree.PredictRow(t, row), labels[static_cast<size_t>(row)]);
  }
}

TEST(DecisionTreeTest, LeavesPartitionTrainingRows) {
  Table t = EmployeeTable();
  std::vector<int> labels = {0, 1, 2, 0, 1, 2, 0, 1, 2};  // noisy labels
  DecisionTree tree =
      DecisionTree::Fit(t, RowSet::All(9), {0, 1, 2}, labels).ValueOrDie();
  RowSet all_leaf_rows;
  int64_t total = 0;
  for (const auto& leaf : tree.leaves()) {
    all_leaf_rows = all_leaf_rows.Union(leaf.rows);
    total += leaf.rows.size();
  }
  EXPECT_EQ(all_leaf_rows, RowSet::All(9));  // cover
  EXPECT_EQ(total, 9);                       // disjoint
}

TEST(DecisionTreeTest, InputValidation) {
  Table t = EmployeeTable();
  std::vector<int> labels(9, 0);
  EXPECT_TRUE(
      DecisionTree::Fit(t, RowSet(), {0}, labels).status().IsInvalidArgument());
  EXPECT_TRUE(DecisionTree::Fit(t, RowSet::All(9), {0}, {0, 1})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      DecisionTree::Fit(t, RowSet::All(9), {99}, labels).status().IsOutOfRange());
}

TEST(DecisionTreeTest, ConditionsEvaluateToTheirPartitions) {
  // Property: filtering the table by each leaf's condition reproduces the
  // leaf's training rows (conditions are faithful descriptions).
  Table t = EmployeeTable();
  std::vector<int> labels = {0, 0, 1, 2, 3, 1, 3, 1, 0};
  DecisionTree tree = DecisionTree::Fit(t, RowSet::All(9), {0, 1}, labels).ValueOrDie();
  for (const auto& leaf : tree.leaves()) {
    RowSet filtered = FilterRows(t, *leaf.condition).ValueOrDie();
    EXPECT_EQ(filtered, leaf.rows) << leaf.condition->ToString();
  }
}

}  // namespace
}  // namespace charles
