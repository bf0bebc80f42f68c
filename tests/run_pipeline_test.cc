/// \file
/// RunPipeline (ISSUE 5): the staged decomposition of CharlesEngine::Find.
/// Covers the stage table, stage-by-stage composition on a shared RunState
/// (each stage's products checked before the next runs), and parity of the
/// staged pipeline against the pre-refactor golden summaries on the
/// employee and billionaires workloads; also that phase 3's ranking merge
/// yields the same top-N for every arrival order.

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "core/engine.h"
#include "core/run_pipeline.h"
#include "workload/billionaires_gen.h"
#include "workload/employee_gen.h"
#include "workload/example1.h"

namespace charles {
namespace {

TEST(RunPipelineTest, StageTableNamesTheDocumentedStages) {
  size_t count = 0;
  const RunPipeline::StageSpec* stages = RunPipeline::Stages(&count);
  ASSERT_EQ(count, 6u);
  EXPECT_STREQ(stages[0].name, "diff/align");
  EXPECT_STREQ(stages[1].name, "setup");
  EXPECT_STREQ(stages[2].name, "phase 1 (signals)");
  EXPECT_STREQ(stages[3].name, "phase 2 (trees)");
  EXPECT_STREQ(stages[4].name, "phase 3 (fits)");
  EXPECT_STREQ(stages[5].name, "rank/stream");
  // The three search phases land their wall time in the documented
  // SummaryList fields; the cheap bracketing stages only count into
  // elapsed_seconds.
  EXPECT_EQ(stages[0].timing, nullptr);
  EXPECT_EQ(stages[2].timing, &SummaryList::clustering_seconds);
  EXPECT_EQ(stages[3].timing, &SummaryList::induction_seconds);
  EXPECT_EQ(stages[4].timing, &SummaryList::fitting_seconds);
  EXPECT_EQ(stages[5].timing, nullptr);
}

TEST(RunPipelineTest, StagesComposeToTheOneCallEngine) {
  Table source = MakeExample1Source().ValueOrDie();
  Table target = MakeExample1Target().ValueOrDie();
  CharlesOptions options;
  options.target_attribute = "bonus";
  options.key_columns = {"name"};
  options.num_threads = 1;
  CharlesEngine engine(options);

  // Drive the pipeline one stage at a time, checking each stage's products
  // on the shared RunState before the next stage consumes them.
  RunState state(engine, source, target, /*stream=*/nullptr, /*stop=*/nullptr);
  ASSERT_TRUE(RunPipeline::DiffAlign(state).ok());
  ASSERT_NE(state.analysis, nullptr);
  EXPECT_EQ(static_cast<int64_t>(state.y_old.size()), state.analysis->num_rows());
  EXPECT_EQ(state.y_old.size(), state.y_new.size());

  ASSERT_TRUE(RunPipeline::Setup(state).ok());
  EXPECT_FALSE(state.cond_names.empty());
  EXPECT_FALSE(state.tran_names.empty());
  EXPECT_EQ(state.cond_indices.size(), state.cond_names.size());
  ASSERT_FALSE(state.t_subsets.empty());
  EXPECT_TRUE(state.t_subsets.front().empty());  // ∅ first: constant shifts
  EXPECT_EQ(state.result.condition_subsets,
            static_cast<int64_t>(state.c_subsets.size()));

  ASSERT_TRUE(RunPipeline::Phase1Signals(state).ok());
  EXPECT_FALSE(state.labelings.empty());
  EXPECT_EQ(state.t_attr_names.size(), state.t_subsets.size());
  EXPECT_EQ(state.result.labelings, static_cast<int64_t>(state.labelings.size()));
  ASSERT_NE(state.shortlist_stats, nullptr);  // one scan serves every T
  EXPECT_EQ(state.shortlist_stats->n(), state.analysis->num_rows());

  ASSERT_TRUE(RunPipeline::Phase2Trees(state).ok());
  EXPECT_FALSE(state.partitions.empty());
  EXPECT_EQ(state.result.partitions,
            static_cast<int64_t>(state.partitions.size()));

  ASSERT_TRUE(RunPipeline::Phase3Fits(state).ok());
  EXPECT_EQ(state.work_items,
            static_cast<int64_t>(state.partitions.size() * state.t_subsets.size()));
  EXPECT_EQ(state.stream_merge.completed, state.work_items);
  EXPECT_GT(state.result.leaf_fits_computed, 0);

  ASSERT_TRUE(RunPipeline::RankStream(state).ok());
  ASSERT_FALSE(state.result.summaries.empty());

  // The staged composition is exactly what Find() runs.
  SummaryList full = engine.Find(source, target).ValueOrDie();
  ASSERT_EQ(full.summaries.size(), state.result.summaries.size());
  for (size_t i = 0; i < full.summaries.size(); ++i) {
    EXPECT_EQ(full.summaries[i].ToString(), state.result.summaries[i].ToString());
    EXPECT_EQ(full.summaries[i].scores().score,
              state.result.summaries[i].scores().score);
  }
  EXPECT_EQ(full.candidates_evaluated, state.result.candidates_evaluated);
  EXPECT_EQ(full.candidates_deduped, state.result.candidates_deduped);
}

TEST(RunPipelineTest, RankingMergeIsIndependentOfArrivalOrder) {
  // Few signatures, scores, CT counts and self-reference flags, so many
  // items tie on everything but their index.
  struct Item {
    std::string signature;
    double score;
    int num_cts;
    bool uses_old_target;
  };
  std::mt19937 rng(24);
  std::vector<Item> items;
  for (int i = 0; i < 60; ++i) {
    items.push_back(Item{"sig" + std::to_string(rng() % 8), 0.25 * (1 + rng() % 3),
                         1 + static_cast<int>(rng() % 2), rng() % 2 == 0});
  }
  // A summary carrying the item's rank inputs, tagged with its index in
  // `accuracy`.
  auto summary_of = [&](size_t index) {
    const Item& item = items[index];
    std::vector<ConditionalTransform> cts(static_cast<size_t>(item.num_cts));
    ChangeSummary summary(std::move(cts), "y");
    summary.set_attributes({}, item.uses_old_target
                                   ? std::vector<std::string>{"y"}
                                   : std::vector<std::string>{"x"});
    ScoreBreakdown scores;
    scores.score = item.score;
    scores.accuracy = static_cast<double>(index);
    summary.set_scores(scores);
    return summary;
  };

  // The oracle: sort every item by the documented order, keep the first
  // per signature, truncate.
  std::vector<size_t> sorted(items.size());
  std::iota(sorted.begin(), sorted.end(), 0);
  std::sort(sorted.begin(), sorted.end(), [&](size_t a, size_t b) {
    const Item& x = items[a];
    const Item& y = items[b];
    if (x.score != y.score) return x.score > y.score;
    if (x.num_cts != y.num_cts) return x.num_cts < y.num_cts;
    if (x.uses_old_target != y.uses_old_target) return x.uses_old_target;
    if (x.signature != y.signature) return x.signature < y.signature;
    return a < b;
  });
  std::vector<size_t> best;
  std::vector<std::string> seen;
  for (size_t index : sorted) {
    if (std::find(seen.begin(), seen.end(), items[index].signature) != seen.end()) {
      continue;
    }
    seen.push_back(items[index].signature);
    best.push_back(index);
  }

  for (int top_n : {1, 3, 100}) {
    const std::vector<size_t> expected(
        best.begin(), best.begin() + std::min<size_t>(best.size(), top_n));
    std::vector<size_t> order(items.size());
    std::iota(order.begin(), order.end(), 0);
    for (int trial = 0; trial < 20; ++trial) {
      std::shuffle(order.begin(), order.end(), rng);
      RunState::StreamMerge merge;
      std::lock_guard<std::mutex> lock(merge.mu);
      for (size_t index : order) {
        merge.Add(summary_of(index), std::string(items[index].signature), index,
                  top_n);
      }
      std::vector<size_t> ranked;
      for (const RunState::StreamMerge::Entry& entry : merge.top) {
        ranked.push_back(static_cast<size_t>(entry.summary.scores().accuracy));
      }
      EXPECT_EQ(ranked, expected) << "top_n " << top_n << ", trial " << trial;
      EXPECT_EQ(merge.evaluated, static_cast<int64_t>(items.size()));
      EXPECT_EQ(merge.deduped, static_cast<int64_t>(items.size() - best.size()));
    }
  }
}

/// The pre-refactor goldens: search-trajectory counts and the top-ranked
/// summary of each workload, captured from the monolithic Find() at the
/// seed of this change (num_threads = 1, stats_block_rows = 64). The staged
/// pipeline must keep reproducing them. The partition and candidate counts
/// were re-recorded when phase 1 moved from Lloyd's k-means to the exact 1-D
/// DP, whose labelings differ wherever Lloyd stopped at a local optimum; the
/// summaries themselves did not change.
struct Golden {
  int64_t labelings;
  int64_t partitions;
  int64_t candidates_evaluated;
  int64_t candidates_deduped;
  int64_t condition_subsets;
  int64_t transform_subsets;
  size_t num_summaries;
  std::string top_score;              ///< FormatDouble(score, 4)
  std::vector<std::string> top_contains;  ///< substrings of rank-0 ToString()
};

void ExpectGolden(const SummaryList& result, const Golden& golden) {
  EXPECT_EQ(result.labelings, golden.labelings);
  EXPECT_EQ(result.partitions, golden.partitions);
  EXPECT_EQ(result.candidates_evaluated, golden.candidates_evaluated);
  EXPECT_EQ(result.candidates_deduped, golden.candidates_deduped);
  EXPECT_EQ(result.condition_subsets, golden.condition_subsets);
  EXPECT_EQ(result.transform_subsets, golden.transform_subsets);
  ASSERT_EQ(result.summaries.size(), golden.num_summaries);
  EXPECT_EQ(FormatDouble(result.summaries[0].scores().score, 4), golden.top_score);
  std::string top = result.summaries[0].ToString();
  for (const std::string& fragment : golden.top_contains) {
    EXPECT_NE(top.find(fragment), std::string::npos)
        << "missing '" << fragment << "' in:\n" << top;
  }
}

TEST(RunPipelineGoldenTest, EmployeeMatchesPreRefactorSummaries) {
  EmployeeGenOptions gen;
  gen.num_rows = 600;
  Table source = GenerateEmployees(gen).ValueOrDie();
  Table target = MakeEmployeeBonusPolicy().Apply(source).ValueOrDie();
  CharlesOptions options;
  options.target_attribute = "bonus";
  options.key_columns = {"emp_id"};
  options.stats_block_rows = 64;
  options.num_threads = 1;
  SummaryList result = SummarizeChanges(source, target, options).ValueOrDie();
  Golden golden;
  golden.labelings = 31;
  golden.partitions = 265;
  golden.candidates_evaluated = 1855;
  golden.candidates_deduped = 52;
  golden.condition_subsets = 14;
  golden.transform_subsets = 7;
  golden.num_summaries = 10;
  golden.top_score = "0.87";
  golden.top_contains = {
      "edu = 'BS'  \xE2\x86\x92  no change",
      "new_bonus = 1.03 \xC3\x97 old_bonus + 400",
      "new_bonus = 1.04 \xC3\x97 old_bonus + 800",
      "new_bonus = 1.05 \xC3\x97 old_bonus + 1000",
      "accuracy=1",
  };
  ExpectGolden(result, golden);
}

TEST(RunPipelineGoldenTest, BillionairesMatchesPreRefactorSummaries) {
  BillionairesGenOptions gen;
  gen.num_rows = 700;
  Table source = GenerateBillionaires(gen).ValueOrDie();
  Table target = MakeMarketPolicy().Apply(source).ValueOrDie();
  CharlesOptions options;
  options.target_attribute = "net_worth";
  options.key_columns = {"person_id"};
  options.stats_block_rows = 64;
  options.num_threads = 1;
  SummaryList result = SummarizeChanges(source, target, options).ValueOrDie();
  Golden golden;
  golden.labelings = 30;
  golden.partitions = 229;
  golden.candidates_evaluated = 916;
  golden.candidates_deduped = 73;
  golden.condition_subsets = 14;
  golden.transform_subsets = 4;
  golden.num_summaries = 10;
  golden.top_score = "0.8647";
  golden.top_contains = {
      "new_net_worth = 1.1 \xC3\x97 old_net_worth + 0.5",
      "new_net_worth = 0.9 \xC3\x97 old_net_worth",
      "new_net_worth = 1.25 \xC3\x97 old_net_worth",
      "new_net_worth = 1.05 \xC3\x97 old_net_worth",
      "accuracy=1",
  };
  ExpectGolden(result, golden);
}

/// The golden trajectory must hold under every execution shape the pipeline
/// supports — parallel and sharded runs reduce to the same staged outputs.
TEST(RunPipelineGoldenTest, GoldenHoldsParallelAndSharded) {
  EmployeeGenOptions gen;
  gen.num_rows = 600;
  Table source = GenerateEmployees(gen).ValueOrDie();
  Table target = MakeEmployeeBonusPolicy().Apply(source).ValueOrDie();
  CharlesOptions options;
  options.target_attribute = "bonus";
  options.key_columns = {"emp_id"};
  options.stats_block_rows = 64;
  options.num_threads = 1;
  SummaryList serial = SummarizeChanges(source, target, options).ValueOrDie();

  CharlesOptions parallel = options;
  parallel.num_threads = 4;
  CharlesOptions sharded = options;
  sharded.num_threads = 2;
  sharded.num_shards = 4;
  for (const CharlesOptions& variant : {parallel, sharded}) {
    SummaryList result = SummarizeChanges(source, target, variant).ValueOrDie();
    ASSERT_EQ(result.summaries.size(), serial.summaries.size());
    for (size_t i = 0; i < serial.summaries.size(); ++i) {
      EXPECT_EQ(result.summaries[i].ToString(), serial.summaries[i].ToString());
      EXPECT_EQ(result.summaries[i].scores().score,
                serial.summaries[i].scores().score);
    }
  }
}

}  // namespace
}  // namespace charles
