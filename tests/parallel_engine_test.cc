#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/engine.h"
#include "core/engine_context.h"
#include "core/run_pipeline.h"
#include "workload/employee_gen.h"
#include "workload/example1.h"
#include "test_fixtures.h"

namespace charles {
namespace {

SummaryList RunWithThreads(const Table& source, const Table& target,
                           CharlesOptions options, int num_threads) {
  options.num_threads = num_threads;
  return SummarizeChanges(source, target, options).ValueOrDie();
}

TEST(ParallelEngineTest, Example1IdenticalAcrossThreadCounts) {
  Table source = MakeExample1Source().ValueOrDie();
  Table target = MakeExample1Target().ValueOrDie();
  CharlesOptions options;
  options.target_attribute = "bonus";
  options.key_columns = {"name"};
  options.top_n = 25;
  SummaryList serial = RunWithThreads(source, target, options, 1);
  EXPECT_EQ(serial.threads_used, 1);
  for (int threads : {2, 4, 8}) {
    SummaryList parallel = RunWithThreads(source, target, options, threads);
    EXPECT_EQ(parallel.threads_used, threads);
    ExpectIdenticalRuns(serial, parallel);
  }
}

TEST(ParallelEngineTest, EmployeeWorkloadIdenticalSerialVsEightThreads) {
  EmployeeGenOptions gen;
  gen.num_rows = 600;
  gen.num_decoy_numeric = 1;
  gen.num_decoy_categorical = 1;
  Table source = GenerateEmployees(gen).ValueOrDie();
  Table target = MakeEmployeeBonusPolicy().Apply(source).ValueOrDie();
  CharlesOptions options;
  options.target_attribute = "bonus";
  options.key_columns = {"emp_id"};
  SummaryList serial = RunWithThreads(source, target, options, 1);
  SummaryList parallel = RunWithThreads(source, target, options, 8);
  ExpectIdenticalRuns(serial, parallel);
  ASSERT_FALSE(parallel.summaries.empty());
  EXPECT_GT(parallel.summaries[0].scores().accuracy, 0.9);
}

TEST(ParallelEngineTest, DefaultThreadsMatchesExplicitSerial) {
  Table source = MakeExample1Source().ValueOrDie();
  Table target = MakeExample1Target().ValueOrDie();
  CharlesOptions options;
  options.target_attribute = "bonus";
  options.key_columns = {"name"};
  // num_threads = 0 resolves to hardware concurrency; output must still be
  // identical to the serial run whatever that resolves to.
  SummaryList defaulted = RunWithThreads(source, target, options, 0);
  SummaryList serial = RunWithThreads(source, target, options, 1);
  EXPECT_GE(defaulted.threads_used, 1);
  ExpectIdenticalRuns(serial, defaulted);
}

TEST(ParallelEngineTest, ParallelRunReusesLeafFits) {
  Table source = MakeExample1Source().ValueOrDie();
  Table target = MakeExample1Target().ValueOrDie();
  CharlesOptions options;
  options.target_attribute = "bonus";
  options.key_columns = {"name"};
  SummaryList parallel = RunWithThreads(source, target, options, 4);
  EXPECT_GT(parallel.leaf_fits_computed, 0);
  EXPECT_GT(parallel.leaf_fits_reused, 0);
  SummaryList serial = RunWithThreads(source, target, options, 1);
  // A worker count must never change how many distinct fits exist, only who
  // computes them; serial reuse comes from slots earlier items filled.
  EXPECT_GT(serial.leaf_fits_reused, 0);
}

TEST(ParallelEngineTest, FitCountersAreDeterministic) {
  // Phase 3 fills each distinct (leaf, T) slot of its fit table exactly
  // once, whichever thread gets there first, so the fit and score-fold
  // counters are work counts, not scheduling accidents: equal at every
  // thread count and shard count, and exactly one fit per distinct slot.
  EmployeeGenOptions gen;
  gen.num_rows = 1500;
  gen.num_decoy_numeric = 1;
  gen.num_decoy_categorical = 1;
  Table source = GenerateEmployees(gen).ValueOrDie();
  Table target = MakeEmployeeBonusPolicy().Apply(source).ValueOrDie();
  CharlesOptions options;
  options.target_attribute = "bonus";
  options.key_columns = {"emp_id"};
  options.stats_block_rows = 256;  // enough blocks for 4 shards

  CharlesEngine serial_engine(options);
  RunState state(serial_engine, source, target, /*stream=*/nullptr, /*stop=*/nullptr);
  size_t count = 0;
  const RunPipeline::StageSpec* stages = RunPipeline::Stages(&count);
  for (size_t s = 0; s < count; ++s) ASSERT_TRUE(stages[s].fn(state).ok());
  const SummaryList& serial = state.result;
  int64_t visits = 0;
  for (const RunState::PartitionEntry& entry : state.partitions) {
    visits += static_cast<int64_t>(entry.leaf_ids.size() * state.t_subsets.size());
  }
  EXPECT_EQ(serial.leaf_fits_computed,
            static_cast<int64_t>(state.leaves.size() * state.t_subsets.size()));
  EXPECT_EQ(serial.leaf_fits_computed + serial.leaf_fits_reused, visits);
  EXPECT_GT(serial.score_leaf_folds, 0);

  struct Config {
    int threads;
    int shards;
  };
  for (const Config& config : {Config{4, 0}, Config{8, 0}, Config{1, 4}, Config{4, 4}}) {
    SCOPED_TRACE(std::to_string(config.threads) + " threads, " +
                 std::to_string(config.shards) + " shards");
    CharlesOptions run_options = options;
    run_options.num_shards = config.shards;
    SummaryList run = RunWithThreads(source, target, run_options, config.threads);
    ExpectIdenticalRuns(serial, run);
    EXPECT_EQ(run.leaf_fits_computed, serial.leaf_fits_computed);
    EXPECT_EQ(run.leaf_fits_reused, serial.leaf_fits_reused);
    if (config.shards == 0) {
      EXPECT_EQ(run.score_leaf_folds, serial.score_leaf_folds);
    }
  }
}

TEST(ParallelEngineTest, PhaseTwoWorkCountersAreDeterministic) {
  // Phase 2 fits one labeling's C-subsets per task over one shared split
  // search, so its work counts depend on the labelings and subsets alone:
  // equal at every thread and shard count, and 0 when the phase cache
  // serves phase 2.
  EmployeeGenOptions gen;
  gen.num_rows = 1500;
  gen.num_decoy_numeric = 1;
  gen.num_decoy_categorical = 1;
  Table source = GenerateEmployees(gen).ValueOrDie();
  Table target = MakeEmployeeBonusPolicy().Apply(source).ValueOrDie();
  CharlesOptions options;
  options.target_attribute = "bonus";
  options.key_columns = {"emp_id"};
  options.stats_block_rows = 256;  // enough blocks for 4 shards

  SummaryList serial = RunWithThreads(source, target, options, 1);
  EXPECT_EQ(serial.trees_induced, serial.condition_subsets * serial.labelings);
  EXPECT_GT(serial.split_scorings, 0);
  for (int threads : {1, 4, 8}) {
    for (int shards : {0, 4}) {
      SCOPED_TRACE(std::to_string(threads) + " threads, " + std::to_string(shards) +
                   " shards");
      CharlesOptions run_options = options;
      run_options.num_shards = shards;
      SummaryList run = RunWithThreads(source, target, run_options, threads);
      EXPECT_EQ(run.trees_induced, serial.trees_induced);
      EXPECT_EQ(run.split_scorings, serial.split_scorings);
      EXPECT_NE(run.ToJson().find("\"work\":{\"trees_induced\":" +
                                  std::to_string(serial.trees_induced) +
                                  ",\"split_scorings\":" +
                                  std::to_string(serial.split_scorings) + "}"),
                std::string::npos);
    }
  }

  EngineContext context;
  CharlesEngine engine(options, &context);
  SummaryList cold = engine.Find(source, target).ValueOrDie();
  SummaryList warm = engine.Find(source, target).ValueOrDie();
  ASSERT_TRUE(warm.phase_cache_hit);
  EXPECT_EQ(cold.trees_induced, serial.trees_induced);
  EXPECT_EQ(cold.split_scorings, serial.split_scorings);
  EXPECT_EQ(warm.trees_induced, 0);
  EXPECT_EQ(warm.split_scorings, 0);
}

TEST(ParallelEngineTest, NegativeThreadCountRejected) {
  Table source = MakeExample1Source().ValueOrDie();
  CharlesOptions options;
  options.target_attribute = "bonus";
  options.key_columns = {"name"};
  options.num_threads = -2;
  EXPECT_TRUE(SummarizeChanges(source, source, options).status().IsOutOfRange());
}

}  // namespace
}  // namespace charles
