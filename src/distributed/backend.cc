#include "distributed/backend.h"

#include <chrono>
#include <cstring>

#include "common/wire.h"
#include "distributed/shard_planner.h"

namespace charles {

namespace {

/// Wire framing: magic first, so a foreign or torn stream fails loudly
/// instead of deserializing garbage moments. "CTK1" frames a task, "CST1" its
/// result.
constexpr char kTaskMagic[4] = {'C', 'T', 'K', '1'};
constexpr char kTaskResultMagic[4] = {'C', 'S', 'T', '1'};

using wire::AppendRaw;
using wire::AppendScalar;
using wire::AppendVector;
using wire::ReadRaw;
using wire::ReadScalar;
using wire::ReadVector;

constexpr int64_t kLeafMomentsTag =
    static_cast<int64_t>(ShardTaskKind::kLeafMoments);

void SerializeLeafShardStats(std::string* out, const LeafShardStats& leaf) {
  AppendScalar(out, leaf.leaf);
  int64_t num_blocks = static_cast<int64_t>(leaf.blocks.size());
  AppendScalar(out, num_blocks);
  for (const auto& [block, stats] : leaf.blocks) {
    AppendScalar(out, block);
    stats.SerializeTo(out);
  }
}

/// Minimum plausible serialized sizes, used to bound corrupt length fields
/// *before* any reserve() sized from them.
constexpr int64_t kMinLeafBytes = 2 * static_cast<int64_t>(sizeof(int64_t));
constexpr int64_t kMinBlockBytes = 5 * static_cast<int64_t>(sizeof(int64_t));

Status ReadLeafShardStats(const unsigned char** at, const unsigned char* end,
                          LeafShardStats* leaf) {
  int64_t num_blocks = 0;
  if (!ReadScalar(at, end, &leaf->leaf) ||
      !ReadScalar(at, end, &num_blocks) || num_blocks < 0 ||
      num_blocks > (end - *at) / kMinBlockBytes) {
    return Status::IOError("ShardTaskResult: truncated leaf entry");
  }
  leaf->blocks.reserve(static_cast<size_t>(num_blocks));
  for (int64_t b = 0; b < num_blocks; ++b) {
    int64_t block = 0;
    if (!ReadScalar(at, end, &block)) {
      return Status::IOError("ShardTaskResult: truncated block");
    }
    CHARLES_ASSIGN_OR_RETURN(SufficientStats stats,
                             SufficientStats::Deserialize(at, end));
    leaf->blocks.emplace_back(block, std::move(stats));
  }
  return Status::OK();
}

}  // namespace

void ShardTask::SerializeTo(std::string* out) const {
  AppendRaw(out, kTaskMagic, sizeof(kTaskMagic));
  AppendScalar(out, kLeafMomentsTag);
  AppendVector(out, leaves);
}

Result<ShardTask> ShardTask::Deserialize(const void* data, size_t size) {
  const unsigned char* at = static_cast<const unsigned char*>(data);
  const unsigned char* end = at + size;
  char magic[4];
  if (!ReadRaw(&at, end, magic, sizeof(magic)) ||
      std::memcmp(magic, kTaskMagic, sizeof(kTaskMagic)) != 0) {
    return Status::IOError("ShardTask::Deserialize: bad magic");
  }
  ShardTask task;
  int64_t kind = 0;
  if (!ReadScalar(&at, end, &kind) || kind != kLeafMomentsTag ||
      !ReadVector(&at, end, &task.leaves)) {
    return Status::IOError("ShardTask::Deserialize: truncated header");
  }
  if (at != end) {
    return Status::IOError("ShardTask::Deserialize: trailing bytes");
  }
  return task;
}

void ShardTaskResult::SerializeTo(std::string* out) const {
  AppendRaw(out, kTaskResultMagic, sizeof(kTaskResultMagic));
  AppendScalar(out, kLeafMomentsTag);
  AppendScalar(out, shard);
  AppendScalar(out, rows_scanned);
  AppendScalar(out, blocks_emitted);
  AppendScalar(out, elapsed_seconds);
  int64_t num_leaves = static_cast<int64_t>(leaves.size());
  AppendScalar(out, num_leaves);
  for (const LeafShardStats& leaf : leaves) SerializeLeafShardStats(out, leaf);
}

Result<ShardTaskResult> ShardTaskResult::Deserialize(const void* data,
                                                     size_t size) {
  const unsigned char* at = static_cast<const unsigned char*>(data);
  const unsigned char* end = at + size;
  char magic[4];
  if (!ReadRaw(&at, end, magic, sizeof(magic)) ||
      std::memcmp(magic, kTaskResultMagic, sizeof(kTaskResultMagic)) != 0) {
    return Status::IOError("ShardTaskResult::Deserialize: bad magic");
  }
  ShardTaskResult result;
  int64_t kind = 0;
  int64_t num_leaves = 0;
  bool ok = ReadScalar(&at, end, &kind) && kind == kLeafMomentsTag &&
            ReadScalar(&at, end, &result.shard) &&
            ReadScalar(&at, end, &result.rows_scanned) &&
            ReadScalar(&at, end, &result.blocks_emitted) &&
            ReadScalar(&at, end, &result.elapsed_seconds) &&
            ReadScalar(&at, end, &num_leaves);
  if (!ok || result.rows_scanned < 0 || num_leaves < 0 ||
      num_leaves > (end - at) / kMinLeafBytes) {
    return Status::IOError("ShardTaskResult::Deserialize: truncated header");
  }
  result.leaves.reserve(static_cast<size_t>(num_leaves));
  for (int64_t l = 0; l < num_leaves; ++l) {
    LeafShardStats leaf;
    CHARLES_RETURN_NOT_OK(ReadLeafShardStats(&at, end, &leaf));
    result.leaves.push_back(std::move(leaf));
  }
  if (at != end) {
    return Status::IOError("ShardTaskResult::Deserialize: trailing bytes");
  }
  return result;
}

namespace {

/// The kLeafMoments sweep: per-(leaf, block) moments in row order for every
/// requested leaf.
void RunLeafMoments(const ShardInput& input, const ShardRange& range,
                    int64_t block_rows,
                    const std::vector<const std::vector<double>*>& columns,
                    const ShardTask& task, ShardTaskResult* result) {
  for (int64_t leaf_index : task.leaves) {
    const RowSet& rows = *input.leaves[static_cast<size_t>(leaf_index)];
    auto [lo, hi] = rows.PositionsInRange(range.row_begin, range.row_end);
    if (lo == hi) continue;
    LeafShardStats leaf;
    leaf.leaf = leaf_index;
    ForEachRowBlock(rows.indices().data() + lo, hi - lo, block_rows,
                    [&](int64_t block, const int64_t* block_rows_ptr, int64_t count) {
                      leaf.blocks.emplace_back(
                          block, AccumulateRows(columns, *input.y_new,
                                                block_rows_ptr, count));
                    });
    result->rows_scanned += hi - lo;
    result->blocks_emitted += static_cast<int64_t>(leaf.blocks.size());
    result->leaves.push_back(std::move(leaf));
  }
}

}  // namespace

Result<ShardTaskResult> ExecuteShardTaskKernel(const ShardInput& input,
                                               const ShardPlan& plan,
                                               int64_t shard_index,
                                               const ShardTask& task) {
  if (shard_index < 0 || shard_index >= plan.num_shards()) {
    return Status::OutOfRange("ExecuteShardTaskKernel: shard " +
                              std::to_string(shard_index) + " of " +
                              std::to_string(plan.num_shards()));
  }
  if (input.shortlist == nullptr || input.columns == nullptr ||
      input.y_new == nullptr) {
    return Status::InvalidArgument("ExecuteShardTaskKernel: incomplete shard input");
  }
  std::vector<const std::vector<double>*> columns;
  if (!input.columns->ResolveColumns(*input.shortlist, &columns)) {
    return Status::InvalidArgument(
        "ExecuteShardTaskKernel: column cache does not cover the shortlist");
  }
  for (int64_t leaf : task.leaves) {
    if (leaf < 0 || leaf >= static_cast<int64_t>(input.leaves.size())) {
      return Status::InvalidArgument("ExecuteShardTaskKernel: leaf " +
                                     std::to_string(leaf) + " out of range");
    }
  }
  auto start = std::chrono::steady_clock::now();
  const ShardRange& range = plan.shards[static_cast<size_t>(shard_index)];
  ShardTaskResult result;
  result.shard = shard_index;
  RunLeafMoments(input, range, plan.block_rows, columns, task, &result);
  result.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return result;
}

}  // namespace charles
