#include "core/partition_finder.h"

#include <gtest/gtest.h>

#include "parallel/thread_pool.h"
#include "workload/example1.h"

namespace charles {
namespace {

struct Example1Fixture {
  Table source;
  std::vector<double> y_old;
  std::vector<double> y_new;
  CharlesOptions options;

  Example1Fixture()
      : source(MakeExample1Source().ValueOrDie()),
        y_old(*source.ColumnAsDoubles("bonus")),
        y_new(*MakeExample1Target().ValueOrDie().ColumnAsDoubles("bonus")) {
    options.target_attribute = "bonus";
    options.key_columns = {"name"};
  }

  PartitionFinder::Input MakeInput(std::vector<std::string> transform_attrs) {
    PartitionFinder::Input input;
    input.source = &source;
    input.y_old = &y_old;
    input.y_new = &y_new;
    input.transform_attrs = std::move(transform_attrs);
    return input;
  }
};

TEST(PartitionFinderTest, GlobalModelFitsBonusTrend) {
  Example1Fixture fx;
  auto input = fx.MakeInput({"bonus"});
  LinearModel global = PartitionFinder::FitGlobalModel(input).ValueOrDie();
  // One global line cannot explain the four groups exactly.
  EXPECT_GT(global.mae, 0.0);
  EXPECT_GT(global.r2, 0.9);  // but the trend is strongly linear
}

TEST(PartitionFinderTest, ClusteringsCoverMultipleSignalsAndK) {
  Example1Fixture fx;
  auto input = fx.MakeInput({"bonus"});
  auto clusterings = PartitionFinder::ClusterResiduals(input, fx.options).ValueOrDie();
  EXPECT_GT(clusterings.labelings.size(), 3u);
  // All labelings must be distinct (dedup holds).
  for (size_t i = 0; i < clusterings.labelings.size(); ++i) {
    for (size_t j = i + 1; j < clusterings.labelings.size(); ++j) {
      EXPECT_NE(clusterings.labelings[i], clusterings.labelings[j]);
    }
  }
}

TEST(PartitionFinderTest, FindsFigure2Partitioning) {
  Example1Fixture fx;
  int edu = *fx.source.schema().FieldIndex("edu");
  int exp = *fx.source.schema().FieldIndex("exp");
  auto candidates =
      PartitionFinder::Find(fx.MakeInput({"bonus"}), {edu, exp}, fx.options)
          .ValueOrDie();
  // One candidate must carve out exactly the paper's four groups:
  // {PhD}, {MS, exp>=3}, {MS, exp<3}, {BS}.
  std::vector<RowSet> expected = {RowSet({0, 1, 8}), RowSet({2, 5, 7}), RowSet({3}),
                                  RowSet({4, 6})};
  bool found = false;
  for (const auto& candidate : candidates) {
    if (candidate.leaves.size() != 4) continue;
    int matches = 0;
    for (const RowSet& group : expected) {
      for (const auto& leaf : candidate.leaves) {
        if (leaf.rows == group) {
          ++matches;
          break;
        }
      }
    }
    if (matches == 4) found = true;
  }
  EXPECT_TRUE(found) << "no candidate matched the Figure-2 partitioning among "
                     << candidates.size();
}

TEST(PartitionFinderTest, KEqualsOneYieldsUniversalPartition) {
  Example1Fixture fx;
  int edu = *fx.source.schema().FieldIndex("edu");
  auto candidates =
      PartitionFinder::Find(fx.MakeInput({"bonus"}), {edu}, fx.options).ValueOrDie();
  bool found_universal = false;
  for (const auto& candidate : candidates) {
    if (candidate.leaves.size() == 1 &&
        candidate.leaves[0].condition->Equals(*MakeTrue())) {
      found_universal = true;
      EXPECT_EQ(candidate.leaves[0].rows.size(), 9);
    }
  }
  EXPECT_TRUE(found_universal);
}

TEST(PartitionFinderTest, EmptyTransformSetUsesInterceptOnlyModel) {
  Example1Fixture fx;
  int edu = *fx.source.schema().FieldIndex("edu");
  auto candidates =
      PartitionFinder::Find(fx.MakeInput({}), {edu}, fx.options).ValueOrDie();
  EXPECT_FALSE(candidates.empty());
}

TEST(PartitionFinderTest, CandidatesAreStructurallyDeduplicated) {
  Example1Fixture fx;
  int edu = *fx.source.schema().FieldIndex("edu");
  int exp = *fx.source.schema().FieldIndex("exp");
  auto candidates =
      PartitionFinder::Find(fx.MakeInput({"bonus"}), {edu, exp}, fx.options)
          .ValueOrDie();
  std::set<std::string> signatures;
  for (const auto& candidate : candidates) {
    std::set<std::string> conditions;
    for (const auto& leaf : candidate.leaves) {
      conditions.insert(leaf.condition->ToString());
    }
    std::string signature;
    for (const auto& c : conditions) signature += c + ";";
    EXPECT_TRUE(signatures.insert(signature).second) << "duplicate: " << signature;
  }
}

TEST(PartitionFinderTest, LeavesPartitionAllRows) {
  Example1Fixture fx;
  int edu = *fx.source.schema().FieldIndex("edu");
  int exp = *fx.source.schema().FieldIndex("exp");
  auto candidates =
      PartitionFinder::Find(fx.MakeInput({"bonus"}), {edu, exp}, fx.options)
          .ValueOrDie();
  for (const auto& candidate : candidates) {
    RowSet all;
    int64_t total = 0;
    for (const auto& leaf : candidate.leaves) {
      all = all.Union(leaf.rows);
      total += leaf.rows.size();
    }
    EXPECT_EQ(all, RowSet::All(9));
    EXPECT_EQ(total, 9);
  }
}

TEST(PartitionFinderTest, PooledFindMatchesSerial) {
  Example1Fixture fx;
  int edu = *fx.source.schema().FieldIndex("edu");
  int exp = *fx.source.schema().FieldIndex("exp");
  auto input = fx.MakeInput({"bonus"});
  std::vector<PartitionCandidate> serial =
      PartitionFinder::Find(input, {edu, exp}, fx.options).ValueOrDie();
  ThreadPool pool(4);
  std::vector<PartitionCandidate> pooled =
      PartitionFinder::Find(input, {edu, exp}, fx.options, &pool).ValueOrDie();
  ASSERT_EQ(serial.size(), pooled.size());
  ASSERT_FALSE(serial.empty());
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].leaves.size(), pooled[i].leaves.size()) << "candidate " << i;
    for (size_t l = 0; l < serial[i].leaves.size(); ++l) {
      EXPECT_EQ(serial[i].leaves[l].condition->ToString(),
                pooled[i].leaves[l].condition->ToString());
      EXPECT_EQ(serial[i].leaves[l].rows, pooled[i].leaves[l].rows);
    }
    EXPECT_EQ(serial[i].k, pooled[i].k);
    EXPECT_EQ(serial[i].label_agreement, pooled[i].label_agreement);
  }
}

TEST(PartitionFinderTest, InputValidation) {
  Example1Fixture fx;
  PartitionFinder::Input input = fx.MakeInput({"bonus"});
  std::vector<double> short_y = {1.0};
  input.y_new = &short_y;
  EXPECT_TRUE(PartitionFinder::ClusterResiduals(input, fx.options)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace charles
