/// \file
/// Distributed shard execution: planner geometry, ShardTask/ShardTaskResult
/// wire round trips, coordinator merge exactness, worker-crash surfacing, and
/// the headline contract — 1/2/8-shard Coordinator runs bit-identical to the
/// unsharded engine on both workloads, for both backends.

#include <gtest/gtest.h>
#include <signal.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/engine.h"
#include "distributed/coordinator.h"
#include "table/table_builder.h"
#include "distributed/in_process_backend.h"
#include "distributed/shard_planner.h"
#include "distributed/subprocess_backend.h"
#include "linalg/score_partials.h"
#include "workload/billionaires_gen.h"
#include "workload/employee_gen.h"

namespace charles {
namespace {

// --- Planner geometry -------------------------------------------------------

TEST(ShardPlannerTest, BoundariesAreBlockAlignedAndCoverAllRows) {
  ShardPlan plan = PlanShards(/*num_rows=*/1000, /*block_rows=*/64, 4);
  ASSERT_EQ(plan.num_shards(), 4);
  EXPECT_EQ(plan.num_blocks(), 16);
  int64_t next_row = 0;
  int64_t next_block = 0;
  for (const ShardRange& shard : plan.shards) {
    EXPECT_EQ(shard.row_begin, next_row);
    EXPECT_EQ(shard.block_begin, next_block);
    EXPECT_EQ(shard.row_begin, shard.block_begin * plan.block_rows);
    EXPECT_GT(shard.num_rows(), 0);
    next_row = shard.row_end;
    next_block = shard.block_end;
  }
  EXPECT_EQ(next_row, 1000);
  EXPECT_EQ(next_block, plan.num_blocks());
}

TEST(ShardPlannerTest, ShardCountClampsToBlockCount) {
  // 100 rows in 64-row blocks = 2 blocks; 8 requested shards collapse to 2.
  ShardPlan plan = PlanShards(100, 64, 8);
  EXPECT_EQ(plan.num_blocks(), 2);
  EXPECT_EQ(plan.num_shards(), 2);
  EXPECT_EQ(plan.shards[0].row_begin, 0);
  EXPECT_EQ(plan.shards[0].row_end, 64);
  EXPECT_EQ(plan.shards[1].row_end, 100);  // last block is short
}

TEST(ShardPlannerTest, EmptyDiffYieldsNoShards) {
  ShardPlan plan = PlanShards(0, 64, 4);
  EXPECT_EQ(plan.num_shards(), 0);
  EXPECT_EQ(plan.num_blocks(), 0);
}

TEST(ShardPlannerTest, PlansAreDeterministic) {
  ShardPlan a = PlanShards(12345, 256, 7);
  ShardPlan b = PlanShards(12345, 256, 7);
  EXPECT_EQ(a.ToString(), b.ToString());
}

// --- Wire round trips -------------------------------------------------------

/// Deterministic synthetic shard input: two feature columns, y vectors, and
/// a few leaves with distinct shapes (all rows, a stride, a prefix).
struct SyntheticInput {
  std::vector<std::string> shortlist;
  ColumnCache columns;
  std::vector<double> y_old;
  std::vector<double> y_new;
  std::vector<RowSet> leaf_storage;
  ShardInput input;
};

SyntheticInput MakeSyntheticInput(int64_t rows) {
  SyntheticInput s;
  s.shortlist = {"a", "b"};
  std::vector<double> a(static_cast<size_t>(rows)), b(static_cast<size_t>(rows));
  s.y_old.resize(static_cast<size_t>(rows));
  s.y_new.resize(static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) {
    size_t i = static_cast<size_t>(r);
    a[i] = 1000.0 + 3.0 * static_cast<double>(r);
    b[i] = 50.0 - 0.25 * static_cast<double>(r % 97);
    s.y_old[i] = 10.0 + 0.5 * a[i];
    s.y_new[i] = (r % 3 == 0) ? s.y_old[i] : 1.05 * s.y_old[i] + 2.0 * b[i];
  }
  // ColumnCache has no public inserter; build it from a throwaway table.
  Schema schema = Schema::Make({Field{"a", TypeKind::kDouble, false},
                                Field{"b", TypeKind::kDouble, false}})
                      .ValueOrDie();
  TableBuilder builder(schema);
  for (int64_t r = 0; r < rows; ++r) {
    size_t i = static_cast<size_t>(r);
    builder.AppendRow({Value(a[i]), Value(b[i])}).AbortIfNotOk();
  }
  Table table = builder.Finish().ValueOrDie();
  s.columns = ColumnCache::Build(table, s.shortlist).ValueOrDie();

  std::vector<int64_t> stride, prefix;
  for (int64_t r = 0; r < rows; r += 3) stride.push_back(r);
  for (int64_t r = 0; r < rows / 2; ++r) prefix.push_back(r);
  s.leaf_storage.push_back(RowSet::All(rows));
  s.leaf_storage.push_back(RowSet(std::move(stride)));
  s.leaf_storage.push_back(RowSet(std::move(prefix)));

  s.input.shortlist = &s.shortlist;
  s.input.columns = &s.columns;
  s.input.y_old = &s.y_old;
  s.input.y_new = &s.y_new;
  for (const RowSet& leaf : s.leaf_storage) s.input.leaves.push_back(&leaf);
  return s;
}

ShardTask MakeMomentsTask(const ShardInput& input) {
  ShardTask task;
  task.kind = ShardTaskKind::kLeafMoments;
  for (size_t l = 0; l < input.leaves.size(); ++l) {
    task.leaves.push_back(static_cast<int64_t>(l));
  }
  return task;
}

ShardTask MakeSignalTask() {
  ShardTask task;
  task.kind = ShardTaskKind::kSignalStats;
  return task;
}

/// Two score probes with distinct leaves/subsets: a one-feature model on
/// the all-rows leaf and a two-feature model on the stride leaf. The worker
/// tallies rows whose |ŷ − y_new| is within the shipped exactness band.
ShardTask MakeScoreTask() {
  ShardTask task;
  task.kind = ShardTaskKind::kScorePartials;
  // Sized to the synthetic input's error decades (~4e2..2e3) so the band
  // genuinely splits the rows: some within, some out.
  task.score_tolerance = 1000.0;
  ErrorProbe p0;
  p0.leaf = 0;
  p0.features = {0};
  p0.intercept = 12.5;
  p0.coefficients = {1.05};
  task.probes.push_back(p0);
  ErrorProbe p1;
  p1.leaf = 1;
  p1.features = {0, 1};
  p1.intercept = -3.0;
  p1.coefficients = {0.5, 2.0};
  task.probes.push_back(p1);
  return task;
}

void ExpectBitIdenticalResults(const ShardTaskResult& a,
                               const ShardTaskResult& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.shard, b.shard);
  EXPECT_EQ(a.rows_scanned, b.rows_scanned);
  EXPECT_EQ(a.blocks_emitted, b.blocks_emitted);
  ASSERT_EQ(a.leaves.size(), b.leaves.size());
  for (size_t l = 0; l < a.leaves.size(); ++l) {
    EXPECT_EQ(a.leaves[l].leaf, b.leaves[l].leaf);
    EXPECT_EQ(std::memcmp(&a.leaves[l].max_abs_delta, &b.leaves[l].max_abs_delta,
                          sizeof(double)),
              0);
    ASSERT_EQ(a.leaves[l].blocks.size(), b.leaves[l].blocks.size());
    for (size_t i = 0; i < a.leaves[l].blocks.size(); ++i) {
      EXPECT_EQ(a.leaves[l].blocks[i].first, b.leaves[l].blocks[i].first);
      EXPECT_TRUE(
          a.leaves[l].blocks[i].second.BitIdenticalTo(b.leaves[l].blocks[i].second));
    }
  }
}

TEST(ShardWireTest, SufficientStatsRoundTripIsExact) {
  SyntheticInput s = MakeSyntheticInput(257);
  std::vector<const std::vector<double>*> cols;
  ASSERT_TRUE(s.columns.ResolveColumns(s.shortlist, &cols));
  SufficientStats stats =
      AccumulateRows(cols, s.y_new, s.leaf_storage[0].indices().data(), 257);
  std::string wire;
  stats.SerializeTo(&wire);
  const unsigned char* cursor = reinterpret_cast<const unsigned char*>(wire.data());
  const unsigned char* end = cursor + wire.size();
  SufficientStats back = SufficientStats::Deserialize(&cursor, end).ValueOrDie();
  EXPECT_EQ(cursor, end);
  EXPECT_TRUE(back.BitIdenticalTo(stats));
  EXPECT_EQ(back.n(), 257);
}

TEST(ShardWireTest, ShardResultRoundTripIsExact) {
  SyntheticInput s = MakeSyntheticInput(500);
  ShardPlan plan = PlanShards(500, 64, 3);
  for (int64_t shard = 0; shard < plan.num_shards(); ++shard) {
    ShardTaskResult result =
        ExecuteShardTaskKernel(s.input, plan, shard, MakeMomentsTask(s.input))
            .ValueOrDie();
    std::string wire;
    result.SerializeTo(&wire);
    ShardTaskResult back =
        ShardTaskResult::Deserialize(wire.data(), wire.size()).ValueOrDie();
    ExpectBitIdenticalResults(result, back);
  }
}

TEST(ShardWireTest, TruncatedAndCorruptedBytesAreRejected) {
  SyntheticInput s = MakeSyntheticInput(200);
  ShardPlan plan = PlanShards(200, 64, 2);
  ShardTaskResult result =
      ExecuteShardTaskKernel(s.input, plan, 0, MakeMomentsTask(s.input))
          .ValueOrDie();
  std::string wire;
  result.SerializeTo(&wire);
  EXPECT_TRUE(ShardTaskResult::Deserialize(wire.data(), wire.size() / 2)
                  .status()
                  .IsIOError());
  EXPECT_TRUE(ShardTaskResult::Deserialize(wire.data(), 2).status().IsIOError());
  std::string corrupted = wire;
  corrupted[0] = 'X';  // magic mismatch
  EXPECT_TRUE(ShardTaskResult::Deserialize(corrupted.data(), corrupted.size())
                  .status()
                  .IsIOError());
  // A corrupt length field must fail with IOError before any allocation
  // sized from it (magic | kind | shard | rows | blocks | elapsed = 44
  // bytes in, then the leaf count).
  std::string huge_count = wire;
  int64_t absurd = int64_t{1} << 60;
  std::memcpy(&huge_count[44], &absurd, sizeof(absurd));
  EXPECT_TRUE(ShardTaskResult::Deserialize(huge_count.data(), huge_count.size())
                  .status()
                  .IsIOError());
}

// --- Coordinator merge exactness -------------------------------------------

TEST(CoordinatorTest, MergedMomentsMatchUnshardedAccumulationBitForBit) {
  SyntheticInput s = MakeSyntheticInput(777);
  std::vector<const std::vector<double>*> cols;
  ASSERT_TRUE(s.columns.ResolveColumns(s.shortlist, &cols));
  InProcessBackend backend;
  for (int shards : {1, 2, 5, 8}) {
    ShardPlan plan = PlanShards(777, 64, shards);
    CoordinatorTaskResult merged =
        Coordinator::RunTask(s.input, plan, &backend, /*pool=*/nullptr,
                             MakeMomentsTask(s.input))
            .ValueOrDie();
    ASSERT_EQ(merged.leaves.size(), s.leaf_storage.size());
    for (size_t l = 0; l < s.leaf_storage.size(); ++l) {
      SufficientStats direct =
          AccumulateRowBlocks(cols, s.y_new, s.leaf_storage[l].indices(), 64);
      EXPECT_TRUE(merged.leaves[l].stats.BitIdenticalTo(direct))
          << "leaf " << l << " at " << shards << " shards";
    }
  }
}

TEST(CoordinatorTest, SubprocessResultsMatchInProcessBitForBit) {
  SyntheticInput s = MakeSyntheticInput(400);
  ShardPlan plan = PlanShards(400, 64, 4);
  InProcessBackend in_process;
  SubprocessBackend subprocess;
  ShardTask task = MakeMomentsTask(s.input);
  CoordinatorTaskResult a =
      Coordinator::RunTask(s.input, plan, &in_process, nullptr, task).ValueOrDie();
  CoordinatorTaskResult b =
      Coordinator::RunTask(s.input, plan, &subprocess, nullptr, task).ValueOrDie();
  ASSERT_EQ(a.leaves.size(), b.leaves.size());
  for (size_t l = 0; l < a.leaves.size(); ++l) {
    EXPECT_TRUE(a.leaves[l].stats.BitIdenticalTo(b.leaves[l].stats));
    EXPECT_EQ(std::memcmp(&a.leaves[l].max_abs_delta, &b.leaves[l].max_abs_delta,
                          sizeof(double)),
              0);
  }
  EXPECT_EQ(a.rows_scanned, b.rows_scanned);
}

TEST(CoordinatorTest, RangeAccumulationMatchesIndexedAccumulationBitForBit) {
  SyntheticInput s = MakeSyntheticInput(333);
  std::vector<const std::vector<double>*> cols;
  ASSERT_TRUE(s.columns.ResolveColumns(s.shortlist, &cols));
  // The engine's all-rows fast path (no index vector) must replay exactly
  // the canonical indexed fold the shards and leaf caches use.
  SufficientStats range = AccumulateRangeBlocks(cols, s.y_new, 333, 64);
  SufficientStats indexed =
      AccumulateRowBlocks(cols, s.y_new, RowSet::All(333).indices(), 64);
  EXPECT_TRUE(range.BitIdenticalTo(indexed));
}

TEST(CoordinatorTest, StopTokenCancelsBetweenShards) {
  SyntheticInput s = MakeSyntheticInput(600);
  ShardPlan plan = PlanShards(600, 64, 8);
  InProcessBackend backend;
  StopToken stop;
  stop.RequestStop();
  Status status = Coordinator::RunTask(s.input, plan, &backend, nullptr,
                                       MakeMomentsTask(s.input), &stop)
                      .status();
  EXPECT_TRUE(status.IsCancelled());
}

// --- Worker failure surfacing (satellite: no hang, a Status instead) --------

TEST(SubprocessBackendTest, WorkerKilledMidShardSurfacesAsStatus) {
  SyntheticInput s = MakeSyntheticInput(300);
  ShardPlan plan = PlanShards(300, 64, 3);
  SubprocessBackend backend([](int64_t shard) {
    if (shard == 1) raise(SIGKILL);  // die mid-shard, pipe closes unflushed
  });
  ShardTask task = MakeMomentsTask(s.input);
  // Healthy shards still work...
  EXPECT_TRUE(backend.ExecuteTask(s.input, plan, 0, task).ok());
  // ...the killed one reports the signal instead of hanging.
  Status status = backend.ExecuteTask(s.input, plan, 1, task).status();
  ASSERT_TRUE(status.IsInternal()) << status.ToString();
  EXPECT_NE(status.message().find("signal"), std::string::npos) << status.ToString();
}

TEST(SubprocessBackendTest, NonzeroWorkerExitSurfacesAsStatus) {
  SyntheticInput s = MakeSyntheticInput(300);
  ShardPlan plan = PlanShards(300, 64, 2);
  SubprocessBackend backend([](int64_t shard) {
    if (shard == 0) ::_exit(7);
  });
  Status status =
      backend.ExecuteTask(s.input, plan, 0, MakeMomentsTask(s.input)).status();
  ASSERT_TRUE(status.IsInternal()) << status.ToString();
  EXPECT_NE(status.message().find("status 7"), std::string::npos) << status.ToString();
}

TEST(SubprocessBackendTest, CoordinatorPropagatesWorkerCrash) {
  SyntheticInput s = MakeSyntheticInput(300);
  ShardPlan plan = PlanShards(300, 64, 3);
  SubprocessBackend backend([](int64_t shard) {
    if (shard == 2) raise(SIGKILL);
  });
  Status status = Coordinator::RunTask(s.input, plan, &backend, nullptr,
                                       MakeMomentsTask(s.input))
                      .status();
  EXPECT_TRUE(status.IsInternal()) << status.ToString();
}

// --- ShardTask protocol: tagged tasks, wire, exact merges -------------------

TEST(ShardTaskWireTest, TaskRoundTripIsExactForAllKinds) {
  SyntheticInput s = MakeSyntheticInput(100);
  for (const ShardTask& task :
       {MakeMomentsTask(s.input), MakeSignalTask(), MakeScoreTask()}) {
    std::string wire;
    task.SerializeTo(&wire);
    ShardTask back = ShardTask::Deserialize(wire.data(), wire.size()).ValueOrDie();
    EXPECT_EQ(back.kind, task.kind);
    EXPECT_EQ(back.leaves, task.leaves);
    ASSERT_EQ(back.probes.size(), task.probes.size());
    for (size_t p = 0; p < task.probes.size(); ++p) {
      EXPECT_EQ(back.probes[p].leaf, task.probes[p].leaf);
      EXPECT_EQ(back.probes[p].features, task.probes[p].features);
      EXPECT_EQ(std::memcmp(&back.probes[p].intercept, &task.probes[p].intercept,
                            sizeof(double)),
                0);
      EXPECT_EQ(back.probes[p].coefficients, task.probes[p].coefficients);
    }
    EXPECT_EQ(std::memcmp(&back.score_tolerance, &task.score_tolerance,
                          sizeof(double)),
              0);
    // Truncation and a foreign magic must fail loudly.
    EXPECT_TRUE(ShardTask::Deserialize(wire.data(), wire.size() / 2)
                    .status()
                    .IsIOError());
    std::string corrupted = wire;
    corrupted[0] = 'X';
    EXPECT_TRUE(ShardTask::Deserialize(corrupted.data(), corrupted.size())
                    .status()
                    .IsIOError());
  }
}

TEST(ShardTaskWireTest, TaskResultRoundTripIsExactForAllKinds) {
  SyntheticInput s = MakeSyntheticInput(500);
  ShardPlan plan = PlanShards(500, 64, 3);
  for (const ShardTask& task :
       {MakeMomentsTask(s.input), MakeSignalTask(), MakeScoreTask()}) {
    for (int64_t shard = 0; shard < plan.num_shards(); ++shard) {
      ShardTaskResult result =
          ExecuteShardTaskKernel(s.input, plan, shard, task).ValueOrDie();
      std::string wire;
      result.SerializeTo(&wire);
      ShardTaskResult back =
          ShardTaskResult::Deserialize(wire.data(), wire.size()).ValueOrDie();
      EXPECT_EQ(back.kind, result.kind);
      EXPECT_EQ(back.shard, result.shard);
      EXPECT_EQ(back.rows_scanned, result.rows_scanned);
      EXPECT_EQ(back.blocks_emitted, result.blocks_emitted);
      ASSERT_EQ(back.leaves.size(), result.leaves.size());
      for (size_t l = 0; l < result.leaves.size(); ++l) {
        EXPECT_EQ(back.leaves[l].leaf, result.leaves[l].leaf);
        ASSERT_EQ(back.leaves[l].blocks.size(), result.leaves[l].blocks.size());
        for (size_t b = 0; b < result.leaves[l].blocks.size(); ++b) {
          EXPECT_TRUE(back.leaves[l].blocks[b].second.BitIdenticalTo(
              result.leaves[l].blocks[b].second));
        }
      }
      ASSERT_EQ(back.signal_blocks.size(), result.signal_blocks.size());
      for (size_t b = 0; b < result.signal_blocks.size(); ++b) {
        EXPECT_EQ(back.signal_blocks[b].first, result.signal_blocks[b].first);
        EXPECT_TRUE(back.signal_blocks[b].second.BitIdenticalTo(
            result.signal_blocks[b].second));
      }
      EXPECT_EQ(std::memcmp(&back.signal_max_abs_delta,
                            &result.signal_max_abs_delta, sizeof(double)),
                0);
      EXPECT_EQ(back.signal_rows_changed, result.signal_rows_changed);
      ASSERT_EQ(back.score_probes.size(), result.score_probes.size());
      for (size_t p = 0; p < result.score_probes.size(); ++p) {
        EXPECT_EQ(back.score_probes[p].probe, result.score_probes[p].probe);
        ASSERT_EQ(back.score_probes[p].blocks.size(),
                  result.score_probes[p].blocks.size());
        for (size_t b = 0; b < result.score_probes[p].blocks.size(); ++b) {
          EXPECT_EQ(back.score_probes[p].blocks[b].first,
                    result.score_probes[p].blocks[b].first);
          EXPECT_TRUE(back.score_probes[p].blocks[b].second.BitIdenticalTo(
              result.score_probes[p].blocks[b].second));
        }
      }
      EXPECT_TRUE(ShardTaskResult::Deserialize(wire.data(), wire.size() / 2)
                      .status()
                      .IsIOError());
    }
  }
}

TEST(ShardTaskMergeTest, SignalStatsMergeMatchesCentralFoldBitForBit) {
  SyntheticInput s = MakeSyntheticInput(777);
  std::vector<const std::vector<double>*> cols;
  ASSERT_TRUE(s.columns.ResolveColumns(s.shortlist, &cols));
  SufficientStats central = AccumulateRangeBlocks(cols, s.y_new, 777, 64);
  InProcessBackend in_process;
  SubprocessBackend subprocess;
  for (int shards : {1, 2, 5, 8}) {
    ShardPlan plan = PlanShards(777, 64, shards);
    for (ShardBackend* backend :
         std::vector<ShardBackend*>{&in_process, &subprocess}) {
      CoordinatorTaskResult merged =
          Coordinator::RunTask(s.input, plan, backend, /*pool=*/nullptr,
                               MakeSignalTask())
              .ValueOrDie();
      EXPECT_TRUE(merged.signal_stats.BitIdenticalTo(central))
          << backend->name() << " at " << shards << " shards";
      EXPECT_EQ(merged.rows_scanned, 777);
      EXPECT_GT(merged.signal_rows_changed, 0);
    }
  }
}

TEST(ShardTaskMergeTest, ScorePartialsMergeMatchesCentralFoldBitForBit) {
  SyntheticInput s = MakeSyntheticInput(641);
  ShardTask task = MakeScoreTask();
  // Central canonical fold of each probe, straight from the definition: the
  // ŷ chain of LinearModel::PredictRow, the canonical L1 fold, and the
  // within-band tally.
  std::vector<ScorePartials> central;
  for (const ErrorProbe& probe : task.probes) {
    const RowSet& rows = s.leaf_storage[static_cast<size_t>(probe.leaf)];
    std::vector<double> y(static_cast<size_t>(rows.size()));
    std::vector<double> y_hat(static_cast<size_t>(rows.size()));
    for (int64_t r = 0; r < rows.size(); ++r) {
      size_t row = static_cast<size_t>(rows[r]);
      y[static_cast<size_t>(r)] = s.y_new[row];
      double prediction = probe.intercept;
      for (size_t f = 0; f < probe.features.size(); ++f) {
        const std::vector<double>& column =
            *s.columns.Find(s.shortlist[static_cast<size_t>(probe.features[f])]);
        prediction += probe.coefficients[f] * column[row];
      }
      y_hat[static_cast<size_t>(r)] = prediction;
    }
    central.push_back(AccumulateScoreDiffBlocks(y, y_hat, rows.indices(), 64,
                                                task.score_tolerance));
    EXPECT_EQ(central.back().n, rows.size());
  }
  // The band actually splits the rows on this input — a tolerance that
  // matches nothing (or everything) would let a broken tally pass.
  EXPECT_GT(central[0].exact_count, 0);
  EXPECT_LT(central[0].exact_count, central[0].n);
  InProcessBackend in_process;
  SubprocessBackend subprocess;
  for (int shards : {1, 3, 8}) {
    ShardPlan plan = PlanShards(641, 64, shards);
    for (ShardBackend* backend :
         std::vector<ShardBackend*>{&in_process, &subprocess}) {
      CoordinatorTaskResult merged =
          Coordinator::RunTask(s.input, plan, backend, nullptr, task).ValueOrDie();
      ASSERT_EQ(merged.score_probes.size(), task.probes.size());
      for (size_t p = 0; p < central.size(); ++p) {
        EXPECT_TRUE(merged.score_probes[p].partials.BitIdenticalTo(central[p]))
            << backend->name() << " probe " << p << " at " << shards
            << " shards";
      }
    }
  }
}

TEST(ShardTaskMergeTest, NegativeScoreToleranceIsRejected) {
  SyntheticInput s = MakeSyntheticInput(200);
  ShardPlan plan = PlanShards(200, 64, 2);
  ShardTask task = MakeScoreTask();
  task.score_tolerance = -0.5;  // a band below zero can never be intended
  EXPECT_TRUE(ExecuteShardTaskKernel(s.input, plan, 0, task)
                  .status()
                  .IsInvalidArgument());
}

TEST(ShardTaskMergeTest, LeafMomentsSubsetSweepsOnlyRequestedLeaves) {
  SyntheticInput s = MakeSyntheticInput(400);
  ShardPlan plan = PlanShards(400, 64, 4);
  std::vector<const std::vector<double>*> cols;
  ASSERT_TRUE(s.columns.ResolveColumns(s.shortlist, &cols));
  // Request only leaf 2 — the elision shape: cached leaves are simply left
  // out of the task.
  ShardTask task;
  task.kind = ShardTaskKind::kLeafMoments;
  task.leaves = {2};
  InProcessBackend backend;
  CoordinatorTaskResult merged =
      Coordinator::RunTask(s.input, plan, &backend, nullptr, task).ValueOrDie();
  ASSERT_EQ(merged.leaves.size(), 1u);
  SufficientStats direct =
      AccumulateRowBlocks(cols, s.y_new, s.leaf_storage[2].indices(), 64);
  EXPECT_TRUE(merged.leaves[0].stats.BitIdenticalTo(direct));
  // Only the requested leaf's rows were scanned.
  EXPECT_EQ(merged.rows_scanned, s.leaf_storage[2].size());
}

TEST(ShardTaskMergeTest, MalformedProbeSurfacesAsInvalidArgument) {
  SyntheticInput s = MakeSyntheticInput(200);
  ShardPlan plan = PlanShards(200, 64, 2);
  ShardTask task;
  task.kind = ShardTaskKind::kScorePartials;
  ErrorProbe bad;
  bad.leaf = 99;  // out of range
  task.probes.push_back(bad);
  EXPECT_TRUE(ExecuteShardTaskKernel(s.input, plan, 0, task)
                  .status()
                  .IsInvalidArgument());
}

// --- The headline contract: shard parity on real workloads ------------------

/// Byte- and bit-level equality of two ranked runs (the parallel-engine
/// test's comparator, plus score bits via memcmp).
void ExpectIdenticalRuns(const SummaryList& expected, const SummaryList& actual) {
  ASSERT_EQ(expected.summaries.size(), actual.summaries.size());
  for (size_t i = 0; i < expected.summaries.size(); ++i) {
    const ChangeSummary& a = expected.summaries[i];
    const ChangeSummary& b = actual.summaries[i];
    EXPECT_EQ(a.Signature(), b.Signature()) << "rank " << i;
    double sa = a.scores().score, sb = b.scores().score;
    double aa = a.scores().accuracy, ab = b.scores().accuracy;
    EXPECT_EQ(std::memcmp(&sa, &sb, sizeof(double)), 0) << "rank " << i;
    EXPECT_EQ(std::memcmp(&aa, &ab, sizeof(double)), 0) << "rank " << i;
    EXPECT_EQ(a.ToString(), b.ToString()) << "rank " << i;
  }
  EXPECT_EQ(expected.labelings, actual.labelings);
  EXPECT_EQ(expected.partitions, actual.partitions);
  EXPECT_EQ(expected.candidates_evaluated, actual.candidates_evaluated);
  EXPECT_EQ(expected.candidates_deduped, actual.candidates_deduped);
}

struct Workload {
  Table source;
  Table target;
  CharlesOptions options;
};

Workload MakeEmployeeWorkload() {
  EmployeeGenOptions gen;
  gen.num_rows = 600;
  Workload w;
  w.source = GenerateEmployees(gen).ValueOrDie();
  w.target = MakeEmployeeBonusPolicy().Apply(w.source).ValueOrDie();
  w.options.target_attribute = "bonus";
  w.options.key_columns = {"emp_id"};
  // Small canonical blocks so 8 shards exist on 600 rows; the unsharded
  // baseline uses the same block size (results depend on it, sharding on
  // top of it must not).
  w.options.stats_block_rows = 64;
  w.options.num_threads = 2;
  return w;
}

Workload MakeBillionairesWorkload() {
  BillionairesGenOptions gen;
  gen.num_rows = 700;
  Workload w;
  w.source = GenerateBillionaires(gen).ValueOrDie();
  w.target = MakeMarketPolicy().Apply(w.source).ValueOrDie();
  w.options.target_attribute = "net_worth";
  w.options.key_columns = {"person_id"};
  w.options.stats_block_rows = 64;
  w.options.num_threads = 2;
  return w;
}

void RunShardParity(const Workload& w, ShardBackendKind backend) {
  SummaryList unsharded = SummarizeChanges(w.source, w.target, w.options).ValueOrDie();
  ASSERT_FALSE(unsharded.summaries.empty());
  EXPECT_EQ(unsharded.shards_used, 0);
  for (int shards : {1, 2, 8}) {
    CharlesOptions sharded_options = w.options;
    sharded_options.num_shards = shards;
    sharded_options.shard_backend = backend;
    SummaryList sharded =
        SummarizeChanges(w.source, w.target, sharded_options).ValueOrDie();
    EXPECT_EQ(sharded.shards_used, shards) << "requested " << shards;
    EXPECT_GT(sharded.shard_rows_scanned, 0);
    ExpectIdenticalRuns(unsharded, sharded);
  }
}

TEST(ShardParityTest, EmployeeInProcessBitIdenticalAt1_2_8Shards) {
  RunShardParity(MakeEmployeeWorkload(), ShardBackendKind::kInProcess);
}

TEST(ShardParityTest, EmployeeSubprocessBitIdenticalAt1_2_8Shards) {
  RunShardParity(MakeEmployeeWorkload(), ShardBackendKind::kSubprocess);
}

TEST(ShardParityTest, BillionairesInProcessBitIdenticalAt1_2_8Shards) {
  RunShardParity(MakeBillionairesWorkload(), ShardBackendKind::kInProcess);
}

TEST(ShardParityTest, BillionairesSubprocessBitIdenticalAt1_2_8Shards) {
  RunShardParity(MakeBillionairesWorkload(), ShardBackendKind::kSubprocess);
}

TEST(ShardParityTest, ShardedRunWorksWithEngineContext) {
  Workload w = MakeEmployeeWorkload();
  SummaryList unsharded = SummarizeChanges(w.source, w.target, w.options).ValueOrDie();
  EngineContextOptions context_options;
  context_options.num_threads = 2;
  EngineContext context(context_options);
  CharlesOptions sharded_options = w.options;
  sharded_options.num_shards = 4;
  SummaryList cold =
      SummarizeChanges(w.source, w.target, sharded_options, &context).ValueOrDie();
  SummaryList warm =
      SummarizeChanges(w.source, w.target, sharded_options, &context).ValueOrDie();
  ExpectIdenticalRuns(unsharded, cold);
  ExpectIdenticalRuns(unsharded, warm);
  EXPECT_EQ(context.runs_completed(), 2);
}

}  // namespace
}  // namespace charles
