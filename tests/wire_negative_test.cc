/// \file
/// Negative and fuzz coverage of every remote-path wire format: CTK1 tasks,
/// CST1 results, CSI1 install bundles and execute requests must reject
/// malformed, truncated, over-length and wrong-version bytes with a clean
/// Status — never a crash or an unbounded allocation — for every task shape
/// of the one task kind, kLeafMoments.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "distributed/backend.h"
#include "distributed/remote_protocol.h"
#include "distributed/shard_planner.h"
#include "table/row_set.h"

namespace charles {
namespace {

// Byte offsets fixed by the wire layouts (native-endian i64 fields):
//   CTK1: magic[0,4) kind[4,12) leaf-count[12,20) ...
//   CST1: magic[0,4) kind[4,12) shard[12,20) rows[20,28) blocks[28,36)
//         elapsed[36,44) leaf-count[44,52) ...
//   CSI1: magic[0,4) epoch[4,12) num_rows[12,20) block_rows[20,28)
//         shard-count[28,36) 5×i64 per shard | shortlist-count ...
constexpr size_t kTaskKindOffset = 4;
constexpr size_t kTaskLeafCountOffset = 12;
constexpr size_t kResultKindOffset = 4;
constexpr size_t kResultLeafCountOffset = 44;
constexpr size_t kInstallShardCountOffset = 28;

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
  s.columns.Insert("a", std::move(a));
  s.columns.Insert("b", std::move(b));
  std::vector<int64_t> stride;
  for (int64_t r = 0; r < rows; r += 3) stride.push_back(r);
  s.leaf_storage.push_back(RowSet::All(rows));
  s.leaf_storage.push_back(RowSet(std::move(stride)));
  s.input.shortlist = &s.shortlist;
  s.input.columns = &s.columns;
  s.input.y_new = &s.y_new;
  for (const RowSet& leaf : s.leaf_storage) s.input.leaves.push_back(&leaf);
  return s;
}

/// The task shapes the wire carries: every leaf, a one-leaf subset, and the
/// empty sweep of a warm run.
std::vector<ShardTask> TaskShapes(const ShardInput& input) {
  std::vector<ShardTask> tasks(3);
  for (size_t l = 0; l < input.leaves.size(); ++l) {
    tasks[0].leaves.push_back(static_cast<int64_t>(l));
  }
  tasks[1].leaves = {1};
  return tasks;
}

void PatchInt64(std::string* wire, size_t offset, int64_t value) {
  ASSERT_LE(offset + sizeof(value), wire->size());
  std::memcpy(&(*wire)[offset], &value, sizeof(value));
}

// --- CTK1 tasks -------------------------------------------------------------

TEST(WireNegativeTest, TaskEveryStrictPrefixRejectedForAllKinds) {
  SyntheticInput s = MakeSyntheticInput(60);
  for (const ShardTask& task : TaskShapes(s.input)) {
    std::string wire;
    task.SerializeTo(&wire);
    ASSERT_TRUE(ShardTask::Deserialize(wire.data(), wire.size()).ok());
    for (size_t len = 0; len < wire.size(); ++len) {
      EXPECT_TRUE(ShardTask::Deserialize(wire.data(), len).status().IsIOError())
          << task.leaves.size() << " leaves, prefix " << len;
    }
    // One trailing byte is as malformed as one missing byte.
    std::string trailing = wire + "!";
    EXPECT_TRUE(ShardTask::Deserialize(trailing.data(), trailing.size())
                    .status()
                    .IsIOError())
        << task.leaves.size() << " leaves";
  }
}

TEST(WireNegativeTest, TaskWrongVersionMagicRejected) {
  SyntheticInput s = MakeSyntheticInput(60);
  for (const ShardTask& task : TaskShapes(s.input)) {
    std::string wire;
    task.SerializeTo(&wire);
    // A future "CTK2" (or garbled) magic must fail loudly, not mis-parse.
    for (char version : {'2', '0', 'X'}) {
      std::string skewed = wire;
      skewed[3] = version;
      EXPECT_TRUE(ShardTask::Deserialize(skewed.data(), skewed.size())
                      .status()
                      .IsIOError())
          << task.leaves.size() << " leaves, magic byte '" << version << "'";
    }
  }
}

TEST(WireNegativeTest, TaskInvalidKindRejected) {
  SyntheticInput s = MakeSyntheticInput(60);
  std::string wire;
  TaskShapes(s.input)[0].SerializeTo(&wire);
  // 2 and 4 are the retired signal-stats and score-partials kinds of wire v5
  // and earlier, 3 the retired exact-L1 kind of wire v4 and earlier.
  for (int64_t kind : {int64_t{0}, int64_t{2}, int64_t{3}, int64_t{4}, int64_t{5},
                       int64_t{-1}, int64_t{1} << 40}) {
    std::string skewed = wire;
    PatchInt64(&skewed, kTaskKindOffset, kind);
    EXPECT_TRUE(ShardTask::Deserialize(skewed.data(), skewed.size())
                    .status()
                    .IsIOError())
        << "kind " << kind;
  }
}

TEST(WireNegativeTest, TaskHugeCountsRejectedBeforeAllocation) {
  SyntheticInput s = MakeSyntheticInput(60);
  // The leaf-index vector count, on every shape (the empty one included).
  for (const ShardTask& task : TaskShapes(s.input)) {
    std::string wire;
    task.SerializeTo(&wire);
    for (int64_t count : {int64_t{1} << 60, int64_t{-1}}) {
      std::string skewed = wire;
      PatchInt64(&skewed, kTaskLeafCountOffset, count);
      EXPECT_TRUE(ShardTask::Deserialize(skewed.data(), skewed.size())
                      .status()
                      .IsIOError())
          << task.leaves.size() << " leaves, leaf count " << count;
    }
  }
}

// --- CST1 results -----------------------------------------------------------

TEST(WireNegativeTest, ResultEveryStrictPrefixRejectedForAllKinds) {
  SyntheticInput s = MakeSyntheticInput(150);
  ShardPlan plan = PlanShards(150, 64, 2);
  for (const ShardTask& task : TaskShapes(s.input)) {
    ShardTaskResult result =
        ExecuteShardTaskKernel(s.input, plan, 0, task).ValueOrDie();
    std::string wire;
    result.SerializeTo(&wire);
    ASSERT_TRUE(ShardTaskResult::Deserialize(wire.data(), wire.size()).ok());
    for (size_t len = 0; len < wire.size(); ++len) {
      EXPECT_TRUE(
          ShardTaskResult::Deserialize(wire.data(), len).status().IsIOError())
          << task.leaves.size() << " leaves, prefix " << len;
    }
    std::string trailing = wire + "!";
    EXPECT_TRUE(ShardTaskResult::Deserialize(trailing.data(), trailing.size())
                    .status()
                    .IsIOError())
        << task.leaves.size() << " leaves";
  }
}

TEST(WireNegativeTest, ResultWrongVersionMagicAndKindRejected) {
  SyntheticInput s = MakeSyntheticInput(150);
  ShardPlan plan = PlanShards(150, 64, 2);
  ShardTaskResult result =
      ExecuteShardTaskKernel(s.input, plan, 0, TaskShapes(s.input)[0])
          .ValueOrDie();
  std::string wire;
  result.SerializeTo(&wire);
  for (char version : {'2', '0', 'X'}) {
    std::string skewed = wire;
    skewed[3] = version;
    EXPECT_TRUE(ShardTaskResult::Deserialize(skewed.data(), skewed.size())
                    .status()
                    .IsIOError())
        << "magic byte '" << version << "'";
  }
  for (int64_t kind :
       {int64_t{0}, int64_t{2}, int64_t{3}, int64_t{4}, int64_t{5}, int64_t{-1}}) {
    std::string skewed = wire;
    PatchInt64(&skewed, kResultKindOffset, kind);
    EXPECT_TRUE(ShardTaskResult::Deserialize(skewed.data(), skewed.size())
                    .status()
                    .IsIOError())
        << "kind " << kind;
  }
}

TEST(WireNegativeTest, ResultHugeCountsRejectedBeforeAllocation) {
  SyntheticInput s = MakeSyntheticInput(150);
  ShardPlan plan = PlanShards(150, 64, 2);
  ShardTaskResult result =
      ExecuteShardTaskKernel(s.input, plan, 0, TaskShapes(s.input)[0])
          .ValueOrDie();
  std::string wire;
  result.SerializeTo(&wire);
  for (int64_t count : {int64_t{1} << 60, int64_t{-1}}) {
    std::string skewed = wire;
    PatchInt64(&skewed, kResultLeafCountOffset, count);
    EXPECT_TRUE(ShardTaskResult::Deserialize(skewed.data(), skewed.size())
                    .status()
                    .IsIOError())
        << "leaf count " << count;
  }
}

TEST(WireNegativeTest, ResultAlignedPatchSweepNeverCrashes) {
  // Stamp a hostile value over every 8-aligned field position, one at a
  // time: the deserializer may accept (the patch landed inside a double) or
  // reject, but it must never crash or allocate from an unvalidated count.
  SyntheticInput s = MakeSyntheticInput(150);
  ShardPlan plan = PlanShards(150, 64, 2);
  for (const ShardTask& task : TaskShapes(s.input)) {
    ShardTaskResult result =
        ExecuteShardTaskKernel(s.input, plan, 0, task).ValueOrDie();
    std::string wire;
    result.SerializeTo(&wire);
    for (int64_t hostile : {int64_t{1} << 60, int64_t{-1}}) {
      for (size_t offset = 4; offset + sizeof(int64_t) <= wire.size();
           offset += sizeof(int64_t)) {
        std::string skewed = wire;
        std::memcpy(&skewed[offset], &hostile, sizeof(hostile));
        ShardTaskResult::Deserialize(skewed.data(), skewed.size())
            .status();  // outcome irrelevant; surviving the parse is the test
      }
    }
  }
}

// --- CSI1 install bundles ---------------------------------------------------

TEST(WireNegativeTest, InstallBundleEveryStrictPrefixRejected) {
  SyntheticInput s = MakeSyntheticInput(80);
  ShardPlan plan = PlanShards(80, 64, 2);
  std::string bundle;
  ASSERT_TRUE(SerializeInstallInput(1, s.input, plan, &bundle).ok());
  ASSERT_TRUE(DeserializeInstallInput(bundle.data(), bundle.size()).ok());
  for (size_t len = 0; len < bundle.size(); ++len) {
    EXPECT_TRUE(
        DeserializeInstallInput(bundle.data(), len).status().IsIOError())
        << "prefix " << len;
  }
}

TEST(WireNegativeTest, InstallBundleHostilePatchesRejectedOrSurvived) {
  SyntheticInput s = MakeSyntheticInput(80);
  ShardPlan plan = PlanShards(80, 64, 2);
  std::string bundle;
  ASSERT_TRUE(SerializeInstallInput(1, s.input, plan, &bundle).ok());
  // Wrong-version magic.
  for (char version : {'2', '0'}) {
    std::string skewed = bundle;
    skewed[3] = version;
    EXPECT_TRUE(DeserializeInstallInput(skewed.data(), skewed.size())
                    .status()
                    .IsIOError());
  }
  // Hostile shard count, and the shortlist count right after the plan.
  size_t shortlist_count_offset =
      kInstallShardCountOffset + sizeof(int64_t) +
      static_cast<size_t>(plan.num_shards()) * 5 * sizeof(int64_t);
  for (size_t offset : {kInstallShardCountOffset, shortlist_count_offset}) {
    for (int64_t count : {int64_t{1} << 60, int64_t{-1}}) {
      std::string skewed = bundle;
      PatchInt64(&skewed, offset, count);
      EXPECT_TRUE(DeserializeInstallInput(skewed.data(), skewed.size())
                      .status()
                      .IsIOError())
          << "offset " << offset << " count " << count;
    }
  }
  // Full aligned sweep: reject or survive, never crash.
  for (int64_t hostile : {int64_t{1} << 60, int64_t{-1}}) {
    for (size_t offset = 4; offset + sizeof(int64_t) <= bundle.size();
         offset += sizeof(int64_t)) {
      std::string skewed = bundle;
      std::memcpy(&skewed[offset], &hostile, sizeof(hostile));
      DeserializeInstallInput(skewed.data(), skewed.size()).status();
    }
  }
}

// --- Execute requests -------------------------------------------------------

TEST(WireNegativeTest, ExecuteRequestTruncationAndGarbageRejected) {
  SyntheticInput s = MakeSyntheticInput(60);
  for (const ShardTask& task : TaskShapes(s.input)) {
    std::string request;
    SerializeExecuteRequest(3, 1, /*run_id=*/0xabcdef0123456789ull,
                            /*parent_span=*/7, /*traced=*/true, task, &request);
    RemoteTaskRequest parsed =
        ParseExecuteRequest(request.data(), request.size()).ValueOrDie();
    EXPECT_EQ(parsed.epoch, 3);
    EXPECT_EQ(parsed.shard, 1);
    EXPECT_EQ(parsed.run_id, 0xabcdef0123456789ull);
    EXPECT_EQ(parsed.parent_span, 7u);
    EXPECT_TRUE(parsed.traced);
    EXPECT_EQ(parsed.task.leaves, task.leaves);
    for (size_t len = 0; len < request.size(); ++len) {
      EXPECT_TRUE(
          ParseExecuteRequest(request.data(), len).status().IsIOError())
          << task.leaves.size() << " leaves, prefix " << len;
    }
    std::string trailing = request + "!";
    EXPECT_TRUE(ParseExecuteRequest(trailing.data(), trailing.size())
                    .status()
                    .IsIOError());
  }
}

TEST(WireNegativeTest, ExecuteRequestHostileTracedFlagRejected) {
  // v3 layout: epoch i64 @0 | shard i64 @8 | run_id u64 @16 | parent u64 @24
  // | traced i32 @32 | CTK1. The traced flag is a strict 0/1: anything else
  // is a malformed frame, not a "truthy" value.
  SyntheticInput s = MakeSyntheticInput(60);
  ShardTask task = TaskShapes(s.input).front();
  std::string request;
  SerializeExecuteRequest(3, 1, /*run_id=*/1, /*parent_span=*/0,
                          /*traced=*/false, task, &request);
  constexpr size_t kTracedOffset = 32;
  for (int32_t hostile : {int32_t{2}, int32_t{-1}, int32_t{0x7fffffff}}) {
    std::string skewed = request;
    std::memcpy(&skewed[kTracedOffset], &hostile, sizeof(hostile));
    EXPECT_TRUE(ParseExecuteRequest(skewed.data(), skewed.size())
                    .status()
                    .IsIOError())
        << "traced = " << hostile;
  }
}

// --- Traced task replies ----------------------------------------------------

namespace {

/// One plausible traced reply: a real CST1 result plus two worker spans
/// (root + child) with annotations — the shape WorkerService ships.
std::string MakeTracedReply(const SyntheticInput& s) {
  ShardPlan plan = PlanShards(60, 64, 1);
  ShardTask task = TaskShapes(s.input).front();
  ShardTaskResult result =
      ExecuteShardTaskKernel(s.input, plan, 0, task).ValueOrDie();
  std::vector<obs::SpanRecord> spans(2);
  spans[0].id = 1;
  spans[0].parent = 0;
  spans[0].name = "worker:task";
  spans[0].start_ns = 0;
  spans[0].dur_ns = 5000;
  spans[0].annotations.emplace_back("shard", "0");
  spans[1].id = 2;
  spans[1].parent = 1;
  spans[1].name = "fold";
  spans[1].start_ns = 100;
  spans[1].dur_ns = 4000;
  std::string reply;
  SerializeTracedTaskResult(result, spans, &reply);
  return reply;
}

}  // namespace

TEST(WireNegativeTest, TracedReplyRoundTripAndTruncationRejected) {
  SyntheticInput s = MakeSyntheticInput(60);
  std::string reply = MakeTracedReply(s);
  TracedTaskReply parsed =
      ParseTracedTaskReply(reply.data(), reply.size()).ValueOrDie();
  ASSERT_EQ(parsed.spans.size(), 2u);
  EXPECT_EQ(parsed.spans[0].name, "worker:task");
  EXPECT_EQ(parsed.spans[1].parent, 1u);
  ASSERT_EQ(parsed.spans[0].annotations.size(), 1u);
  EXPECT_EQ(parsed.spans[0].annotations[0].first, "shard");

  for (size_t len = 0; len < reply.size(); ++len) {
    EXPECT_TRUE(ParseTracedTaskReply(reply.data(), len).status().IsIOError())
        << "prefix " << len;
  }
  std::string trailing = reply + "!";
  EXPECT_TRUE(ParseTracedTaskReply(trailing.data(), trailing.size())
                  .status()
                  .IsIOError());
}

TEST(WireNegativeTest, TracedReplyHostileCountsRejectedOrSurvived) {
  SyntheticInput s = MakeSyntheticInput(60);
  std::string reply = MakeTracedReply(s);
  // Hostile values in every aligned i64 slot: the parser must reject or
  // survive (bounded allocation), never crash or over-allocate. The span
  // count and annotation counts are bounded by the bytes actually present.
  for (int64_t hostile : {int64_t{1} << 60, int64_t{-1}}) {
    for (size_t offset = 0; offset + sizeof(int64_t) <= reply.size();
         offset += sizeof(int64_t)) {
      std::string skewed = reply;
      std::memcpy(&skewed[offset], &hostile, sizeof(hostile));
      ParseTracedTaskReply(skewed.data(), skewed.size()).status();
    }
  }
}

}  // namespace
}  // namespace charles
