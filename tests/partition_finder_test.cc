#include "core/partition_finder.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "parallel/thread_pool.h"
#include "workload/example1.h"

namespace charles {
namespace {

/// Example 1 with the phase-1 inputs built the way the engine's Phase1Signals
/// builds them: the transformation shortlist converted once into a column
/// cache, and its moments folded over every row with AccumulateRangeBlocks.
struct Example1Fixture {
  Table source;
  std::vector<double> y_old;
  std::vector<double> y_new;
  CharlesOptions options;
  std::vector<std::string> shortlist = {"bonus", "exp"};
  ColumnCache columns;
  SufficientStats shortlist_stats;

  Example1Fixture()
      : source(MakeExample1Source().ValueOrDie()),
        y_old(*source.ColumnAsDoubles("bonus")),
        y_new(*MakeExample1Target().ValueOrDie().ColumnAsDoubles("bonus")) {
    options.target_attribute = "bonus";
    options.key_columns = {"name"};
    for (const std::string& name : shortlist) {
      columns.Insert(name, *source.ColumnAsDoubles(name));
    }
    FoldShortlistStats();
  }

  /// (Re)folds the shortlist moments from the column cache.
  void FoldShortlistStats() {
    std::vector<const std::vector<double>*> resolved;
    EXPECT_TRUE(columns.ResolveColumns(shortlist, &resolved));
    shortlist_stats = AccumulateRangeBlocks(resolved, y_new, source.num_rows(),
                                            options.stats_block_rows);
  }

  PartitionFinder::Input MakeInput(std::vector<std::string> transform_attrs) {
    PartitionFinder::Input input;
    input.source = &source;
    input.y_old = &y_old;
    input.y_new = &y_new;
    input.column_cache = &columns;
    input.shortlist_stats = &shortlist_stats;
    for (const std::string& name : transform_attrs) {
      auto it = std::find(shortlist.begin(), shortlist.end(), name);
      EXPECT_NE(it, shortlist.end()) << name;
      input.shortlist_subset.push_back(static_cast<int>(it - shortlist.begin()));
    }
    input.transform_attrs = std::move(transform_attrs);
    return input;
  }

  /// Steps 1–3 for one (C, T), as the engine composes them.
  std::vector<PartitionCandidate> Find(const PartitionFinder::Input& input,
                                       const std::vector<int>& condition_attrs,
                                       ThreadPool* pool = nullptr) {
    PartitionFinder::ResidualClusterings clusterings =
        PartitionFinder::ClusterResiduals(input, options).ValueOrDie();
    return PartitionFinder::InduceCandidates(source, clusterings.labelings,
                                             condition_attrs, options,
                                             /*cache=*/nullptr, pool)
        .ValueOrDie();
  }
};

TEST(PartitionFinderTest, GlobalModelFitsBonusTrend) {
  Example1Fixture fx;
  LinearModel global =
      PartitionFinder::ClusterResiduals(fx.MakeInput({"bonus"}), fx.options)
          .ValueOrDie()
          .global_model;
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
  auto candidates = fx.Find(fx.MakeInput({"bonus"}), {edu, exp});
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
  auto candidates = fx.Find(fx.MakeInput({"bonus"}), {edu});
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
  auto candidates = fx.Find(fx.MakeInput({}), {edu});
  EXPECT_FALSE(candidates.empty());
}

TEST(PartitionFinderTest, CandidatesAreStructurallyDeduplicated) {
  Example1Fixture fx;
  int edu = *fx.source.schema().FieldIndex("edu");
  int exp = *fx.source.schema().FieldIndex("exp");
  auto candidates = fx.Find(fx.MakeInput({"bonus"}), {edu, exp});
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
  auto candidates = fx.Find(fx.MakeInput({"bonus"}), {edu, exp});
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
  std::vector<PartitionCandidate> serial = fx.Find(input, {edu, exp});
  ThreadPool pool(4);
  std::vector<PartitionCandidate> pooled = fx.Find(input, {edu, exp}, &pool);
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

TEST(PartitionFinderTest, ClusterResidualsRequiresColumnCache) {
  Example1Fixture fx;
  PartitionFinder::Input input = fx.MakeInput({"bonus"});
  input.column_cache = nullptr;
  Status status = PartitionFinder::ClusterResiduals(input, fx.options).status();
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_NE(status.message().find("column_cache"), std::string::npos)
      << status.ToString();
}

TEST(PartitionFinderTest, ClusterResidualsRequiresShortlistStats) {
  Example1Fixture fx;
  PartitionFinder::Input input = fx.MakeInput({"bonus"});
  input.shortlist_stats = nullptr;
  Status status = PartitionFinder::ClusterResiduals(input, fx.options).status();
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_NE(status.message().find("shortlist_stats"), std::string::npos)
      << status.ToString();
}

TEST(PartitionFinderTest, IllConditionedGlobalSolveFallsBackToQr) {
  // Two identical shortlist columns make the moments' normal equations
  // singular: the sub-solve fails and the global fit drops to the QR ladder,
  // which still explains the trend.
  Example1Fixture fx;
  fx.columns.Insert("bonus_copy", *fx.columns.Find("bonus"));
  fx.shortlist.push_back("bonus_copy");
  fx.FoldShortlistStats();
  PartitionFinder::Input input = fx.MakeInput({"bonus", "bonus_copy"});
  ASSERT_FALSE(LinearRegression::FitFromStats(fx.shortlist_stats, input.shortlist_subset,
                                              input.transform_attrs)
                   .ok());
  PartitionFinder::ResidualClusterings clusterings =
      PartitionFinder::ClusterResiduals(input, fx.options).ValueOrDie();
  EXPECT_GT(clusterings.global_model.r2, 0.9);
  EXPECT_GT(clusterings.labelings.size(), 3u);
}

}  // namespace
}  // namespace charles
