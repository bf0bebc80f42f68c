#include "distributed/backend.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>

#include "common/wire.h"
#include "distributed/shard_planner.h"
#include "linalg/kernels/kernel.h"

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

bool ValidTaskKind(int64_t kind) {
  return kind == static_cast<int64_t>(ShardTaskKind::kLeafMoments) ||
         kind == static_cast<int64_t>(ShardTaskKind::kSignalStats) ||
         kind == static_cast<int64_t>(ShardTaskKind::kScorePartials);
}

void SerializeLeafShardStats(std::string* out, const LeafShardStats& leaf) {
  AppendScalar(out, leaf.leaf);
  AppendScalar(out, leaf.max_abs_delta);
  int64_t num_blocks = static_cast<int64_t>(leaf.blocks.size());
  AppendScalar(out, num_blocks);
  for (const auto& [block, stats] : leaf.blocks) {
    AppendScalar(out, block);
    stats.SerializeTo(out);
  }
}

/// Minimum plausible serialized sizes, used to bound corrupt length fields
/// *before* any reserve() sized from them.
constexpr int64_t kMinLeafBytes = 3 * static_cast<int64_t>(sizeof(int64_t));
constexpr int64_t kMinBlockBytes = 5 * static_cast<int64_t>(sizeof(int64_t));

Status ReadLeafShardStats(const unsigned char** at, const unsigned char* end,
                          LeafShardStats* leaf) {
  int64_t num_blocks = 0;
  if (!ReadScalar(at, end, &leaf->leaf) ||
      !ReadScalar(at, end, &leaf->max_abs_delta) ||
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

std::string ShardTaskKindName(ShardTaskKind kind) {
  switch (kind) {
    case ShardTaskKind::kLeafMoments:
      return "leaf-moments";
    case ShardTaskKind::kSignalStats:
      return "signal-stats";
    case ShardTaskKind::kScorePartials:
      return "score-partials";
  }
  return "unknown";
}

void ShardTask::SerializeTo(std::string* out) const {
  AppendRaw(out, kTaskMagic, sizeof(kTaskMagic));
  AppendScalar(out, static_cast<int64_t>(kind));
  AppendVector(out, leaves);
  int64_t num_probes = static_cast<int64_t>(probes.size());
  AppendScalar(out, num_probes);
  for (const ErrorProbe& probe : probes) {
    AppendScalar(out, probe.leaf);
    AppendScalar(out, probe.intercept);
    AppendVector(out, probe.features);
    AppendVector(out, probe.coefficients);
  }
  // Trailing, unconditional (wire v4): the score-fold exactness band.
  AppendScalar(out, score_tolerance);
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
  int64_t num_probes = 0;
  if (!ReadScalar(&at, end, &kind) || !ValidTaskKind(kind) ||
      !ReadVector(&at, end, &task.leaves) ||
      !ReadScalar(&at, end, &num_probes) || num_probes < 0 ||
      num_probes > (end - at) / kMinLeafBytes) {
    return Status::IOError("ShardTask::Deserialize: truncated header");
  }
  task.kind = static_cast<ShardTaskKind>(kind);
  task.probes.reserve(static_cast<size_t>(num_probes));
  for (int64_t p = 0; p < num_probes; ++p) {
    ErrorProbe probe;
    if (!ReadScalar(&at, end, &probe.leaf) ||
        !ReadScalar(&at, end, &probe.intercept) ||
        !ReadVector(&at, end, &probe.features) ||
        !ReadVector(&at, end, &probe.coefficients)) {
      return Status::IOError("ShardTask::Deserialize: truncated probe");
    }
    task.probes.push_back(std::move(probe));
  }
  if (!ReadScalar(&at, end, &task.score_tolerance)) {
    return Status::IOError("ShardTask::Deserialize: truncated score tolerance");
  }
  if (at != end) {
    return Status::IOError("ShardTask::Deserialize: trailing bytes");
  }
  return task;
}

void ShardTaskResult::SerializeTo(std::string* out) const {
  AppendRaw(out, kTaskResultMagic, sizeof(kTaskResultMagic));
  AppendScalar(out, static_cast<int64_t>(kind));
  AppendScalar(out, shard);
  AppendScalar(out, rows_scanned);
  AppendScalar(out, blocks_emitted);
  AppendScalar(out, elapsed_seconds);
  int64_t num_leaves = static_cast<int64_t>(leaves.size());
  AppendScalar(out, num_leaves);
  for (const LeafShardStats& leaf : leaves) SerializeLeafShardStats(out, leaf);
  int64_t num_signal_blocks = static_cast<int64_t>(signal_blocks.size());
  AppendScalar(out, num_signal_blocks);
  for (const auto& [block, stats] : signal_blocks) {
    AppendScalar(out, block);
    stats.SerializeTo(out);
  }
  AppendScalar(out, signal_max_abs_delta);
  AppendScalar(out, signal_rows_changed);
  int64_t num_score_probes = static_cast<int64_t>(score_probes.size());
  AppendScalar(out, num_score_probes);
  for (const ProbeShardScores& probe : score_probes) {
    AppendScalar(out, probe.probe);
    int64_t num_blocks = static_cast<int64_t>(probe.blocks.size());
    AppendScalar(out, num_blocks);
    for (const auto& [block, partials] : probe.blocks) {
      AppendScalar(out, block);
      partials.SerializeTo(out);
    }
  }
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
  bool ok = ReadScalar(&at, end, &kind) && ValidTaskKind(kind) &&
            ReadScalar(&at, end, &result.shard) &&
            ReadScalar(&at, end, &result.rows_scanned) &&
            ReadScalar(&at, end, &result.blocks_emitted) &&
            ReadScalar(&at, end, &result.elapsed_seconds) &&
            ReadScalar(&at, end, &num_leaves);
  if (!ok || result.rows_scanned < 0 || num_leaves < 0 ||
      num_leaves > (end - at) / kMinLeafBytes) {
    return Status::IOError("ShardTaskResult::Deserialize: truncated header");
  }
  result.kind = static_cast<ShardTaskKind>(kind);
  result.leaves.reserve(static_cast<size_t>(num_leaves));
  for (int64_t l = 0; l < num_leaves; ++l) {
    LeafShardStats leaf;
    CHARLES_RETURN_NOT_OK(ReadLeafShardStats(&at, end, &leaf));
    result.leaves.push_back(std::move(leaf));
  }
  int64_t num_signal_blocks = 0;
  if (!ReadScalar(&at, end, &num_signal_blocks) || num_signal_blocks < 0 ||
      num_signal_blocks > (end - at) / kMinBlockBytes) {
    return Status::IOError("ShardTaskResult::Deserialize: truncated signal header");
  }
  result.signal_blocks.reserve(static_cast<size_t>(num_signal_blocks));
  for (int64_t b = 0; b < num_signal_blocks; ++b) {
    int64_t block = 0;
    if (!ReadScalar(&at, end, &block)) {
      return Status::IOError("ShardTaskResult::Deserialize: truncated signal block");
    }
    CHARLES_ASSIGN_OR_RETURN(SufficientStats stats,
                             SufficientStats::Deserialize(&at, end));
    result.signal_blocks.emplace_back(block, std::move(stats));
  }
  int64_t num_score_probes = 0;
  if (!ReadScalar(&at, end, &result.signal_max_abs_delta) ||
      !ReadScalar(&at, end, &result.signal_rows_changed) ||
      !ReadScalar(&at, end, &num_score_probes) || num_score_probes < 0 ||
      num_score_probes > (end - at) / (2 * static_cast<int64_t>(sizeof(int64_t)))) {
    return Status::IOError(
        "ShardTaskResult::Deserialize: truncated score probe header");
  }
  result.score_probes.reserve(static_cast<size_t>(num_score_probes));
  for (int64_t p = 0; p < num_score_probes; ++p) {
    ProbeShardScores probe;
    int64_t num_blocks = 0;
    if (!ReadScalar(&at, end, &probe.probe) ||
        !ReadScalar(&at, end, &num_blocks) || num_blocks < 0 ||
        num_blocks > (end - at) / (4 * static_cast<int64_t>(sizeof(int64_t)))) {
      return Status::IOError(
          "ShardTaskResult::Deserialize: truncated score probe entry");
    }
    probe.blocks.reserve(static_cast<size_t>(num_blocks));
    for (int64_t b = 0; b < num_blocks; ++b) {
      int64_t block = 0;
      if (!ReadScalar(&at, end, &block)) {
        return Status::IOError(
            "ShardTaskResult::Deserialize: truncated score probe block");
      }
      CHARLES_ASSIGN_OR_RETURN(ScorePartials partials,
                               ScorePartials::Deserialize(&at, end));
      probe.blocks.emplace_back(block, partials);
    }
    result.score_probes.push_back(std::move(probe));
  }
  if (at != end) {
    return Status::IOError("ShardTaskResult::Deserialize: trailing bytes");
  }
  return result;
}

namespace {

/// kLeafMoments: the original sweep — per-(leaf, block) moments in row
/// order, plus the folded snap evidence, for every requested leaf.
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
    const int64_t* slice = rows.indices().data() + lo;
    for (int64_t r = 0; r < hi - lo; ++r) {
      size_t row = static_cast<size_t>(slice[r]);
      double delta = std::abs((*input.y_new)[row] - (*input.y_old)[row]);
      if (delta > leaf.max_abs_delta) leaf.max_abs_delta = delta;
    }
    ForEachRowBlock(slice, hi - lo, block_rows,
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

/// kSignalStats: per-block shortlist moments over every row of the range —
/// the same per-block partials AccumulateRangeBlocks produces centrally —
/// plus the exactly-associative delta evidence.
void RunSignalStats(const ShardInput& input, const ShardRange& range,
                    int64_t block_rows,
                    const std::vector<const std::vector<double>*>& columns,
                    ShardTaskResult* result) {
  // Per-block partials through the same AccumulateRows fold every other
  // stats producer uses, over the block's identity index run — so the
  // merged moments equal AccumulateRangeBlocks' central output bit-for-bit.
  // The scratch buffer is bounded by the rows actually present: a one-block
  // configuration (stats_block_rows ≫ table size) is legal and must not
  // allocate by the configured block size.
  std::vector<int64_t> block_index(
      static_cast<size_t>(std::min(block_rows, range.num_rows())));
  for (int64_t begin = range.row_begin; begin < range.row_end;
       begin += block_rows) {
    int64_t end = std::min(begin + block_rows, range.row_end);
    int64_t count = end - begin;
    for (int64_t i = 0; i < count; ++i) block_index[static_cast<size_t>(i)] = begin + i;
    result->signal_blocks.emplace_back(
        begin / block_rows,
        AccumulateRows(columns, *input.y_new, block_index.data(), count));
    for (int64_t row = begin; row < end; ++row) {
      size_t r = static_cast<size_t>(row);
      double delta = std::abs((*input.y_new)[r] - (*input.y_old)[r]);
      if (delta > result->signal_max_abs_delta) {
        result->signal_max_abs_delta = delta;
      }
      if (delta > 0.0) ++result->signal_rows_changed;
    }
  }
  result->rows_scanned += range.num_rows();
  result->blocks_emitted += static_cast<int64_t>(result->signal_blocks.size());
}

/// kScorePartials: per-(probe, block) exact score partials. Predictions run
/// through the identical ŷ = intercept + Σ cᵢ·xᵢ left-to-right dot product
/// as LinearModel::PredictRow, and |y − ŷ| is summed in row order per block
/// from zero — so the L1 component of the coordinator's block-ordered merge
/// is bit-identical to the central canonical fold (AccumulateAbsDiffBlocks)
/// over the same leaf. The within-`score_tolerance` count is tallied
/// alongside — an integer tally over the same |errors|, exact under any
/// order.
Status RunScorePartials(const ShardInput& input, const ShardRange& range,
                        int64_t block_rows,
                        const std::vector<const std::vector<double>*>& columns,
                        const ShardTask& task, ShardTaskResult* result) {
  if (!(task.score_tolerance >= 0.0)) {
    return Status::InvalidArgument(
        "ExecuteShardTaskKernel: kScorePartials requires a non-negative "
        "score tolerance");
  }
  for (size_t p = 0; p < task.probes.size(); ++p) {
    const ErrorProbe& probe = task.probes[p];
    if (probe.leaf < 0 ||
        probe.leaf >= static_cast<int64_t>(input.leaves.size()) ||
        probe.features.size() != probe.coefficients.size()) {
      return Status::InvalidArgument("ExecuteShardTaskKernel: malformed probe " +
                                     std::to_string(p));
    }
    std::vector<const std::vector<double>*> probe_columns;
    probe_columns.reserve(probe.features.size());
    for (int64_t f : probe.features) {
      if (f < 0 || f >= static_cast<int64_t>(columns.size())) {
        return Status::InvalidArgument(
            "ExecuteShardTaskKernel: probe feature out of shortlist range");
      }
      probe_columns.push_back(columns[static_cast<size_t>(f)]);
    }
    const RowSet& rows = *input.leaves[static_cast<size_t>(probe.leaf)];
    auto [lo, hi] = rows.PositionsInRange(range.row_begin, range.row_end);
    if (lo == hi) continue;
    ProbeShardScores scores;
    scores.probe = static_cast<int64_t>(p);
    const int64_t* slice = rows.indices().data() + lo;
    const kernels::Kernel& kernel = kernels::ActiveKernel();
    ForEachRowBlock(
        slice, hi - lo, block_rows,
        [&](int64_t block, const int64_t* block_rows_ptr, int64_t count) {
          ScorePartials partials;
          kernel.probe_score_sum(probe.intercept, probe.coefficients.data(),
                                 probe_columns, *input.y_new, block_rows_ptr,
                                 count, task.score_tolerance,
                                 &partials.abs_error_sum,
                                 &partials.exact_count);
          partials.n = count;
          scores.blocks.emplace_back(block, partials);
        });
    result->rows_scanned += hi - lo;
    result->blocks_emitted += static_cast<int64_t>(scores.blocks.size());
    result->score_probes.push_back(std::move(scores));
  }
  return Status::OK();
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
      input.y_old == nullptr || input.y_new == nullptr) {
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
  result.kind = task.kind;
  result.shard = shard_index;
  switch (task.kind) {
    case ShardTaskKind::kLeafMoments:
      RunLeafMoments(input, range, plan.block_rows, columns, task, &result);
      break;
    case ShardTaskKind::kSignalStats:
      RunSignalStats(input, range, plan.block_rows, columns, &result);
      break;
    case ShardTaskKind::kScorePartials:
      CHARLES_RETURN_NOT_OK(RunScorePartials(input, range, plan.block_rows,
                                             columns, task, &result));
      break;
  }
  result.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return result;
}

}  // namespace charles
