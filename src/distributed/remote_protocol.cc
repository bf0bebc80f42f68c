#include "distributed/remote_protocol.h"

#include <cstring>
#include <utility>

#include "common/wire.h"
#include "net/frame.h"

namespace charles {

namespace {

constexpr char kInstallMagic[4] = {'C', 'S', 'I', '1'};

// Conservative floor on the serialized size of a nonempty std::string
// (length prefix alone) and of a shard range — used to bound counts against
// the bytes actually present before reserving.
constexpr int64_t kMinStringBytes = static_cast<int64_t>(sizeof(int64_t));
constexpr int64_t kMinShardBytes = static_cast<int64_t>(5 * sizeof(int64_t));
constexpr int64_t kMinVectorBytes = static_cast<int64_t>(sizeof(int64_t));

void AppendString(std::string* out, const std::string& value) {
  wire::AppendScalar(out, static_cast<int64_t>(value.size()));
  wire::AppendRaw(out, value.data(), value.size());
}

bool ReadString(const unsigned char** cursor, const unsigned char* end,
                std::string* value) {
  int64_t length = 0;
  if (!wire::ReadScalar(cursor, end, &length) || length < 0 ||
      length > end - *cursor) {
    return false;
  }
  value->assign(reinterpret_cast<const char*>(*cursor),
                static_cast<size_t>(length));
  *cursor += length;
  return true;
}

Status Malformed(const std::string& what) {
  return Status::IOError("InstallInput: malformed bundle (" + what + ")");
}

}  // namespace

std::string SerializeVersionRange(int32_t version_min, int32_t version_max) {
  std::string out;
  wire::AppendScalar(&out, version_min);
  wire::AppendScalar(&out, version_max);
  return out;
}

Result<RemoteVersionRange> ParseVersionRange(const std::string& payload) {
  const unsigned char* cursor =
      reinterpret_cast<const unsigned char*>(payload.data());
  const unsigned char* end = cursor + payload.size();
  RemoteVersionRange range;
  if (!wire::ReadScalar(&cursor, end, &range.min) ||
      !wire::ReadScalar(&cursor, end, &range.max) || cursor != end) {
    return Status::IOError("remote handshake: malformed version range");
  }
  return range;
}

std::string SerializeChosenVersion(int32_t version) {
  std::string out;
  wire::AppendScalar(&out, version);
  return out;
}

Result<int32_t> ParseChosenVersion(const std::string& payload) {
  const unsigned char* cursor =
      reinterpret_cast<const unsigned char*>(payload.data());
  const unsigned char* end = cursor + payload.size();
  int32_t version = 0;
  if (!wire::ReadScalar(&cursor, end, &version) || cursor != end) {
    return Status::IOError("remote handshake: malformed chosen version");
  }
  return version;
}

Result<int32_t> RemoteClientHandshake(int fd, int timeout_ms,
                                      int64_t max_frame_bytes) {
  CHARLES_RETURN_NOT_OK(net::WriteFrame(
      fd, static_cast<int32_t>(RemoteMessageType::kHello),
      SerializeVersionRange(kRemoteWireVersionMin, kRemoteWireVersionMax)));
  CHARLES_ASSIGN_OR_RETURN(net::Frame reply,
                           net::ReadFrame(fd, timeout_ms, max_frame_bytes));
  if (reply.type == static_cast<int32_t>(RemoteMessageType::kHelloOk)) {
    CHARLES_ASSIGN_OR_RETURN(int32_t version, ParseChosenVersion(reply.payload));
    if (version < kRemoteWireVersionMin || version > kRemoteWireVersionMax) {
      return Status::IOError("remote handshake: worker chose version " +
                             std::to_string(version) +
                             " outside the offered range");
    }
    return version;
  }
  if (reply.type == static_cast<int32_t>(RemoteMessageType::kHelloReject)) {
    Result<RemoteVersionRange> peer = ParseVersionRange(reply.payload);
    std::string peer_range =
        peer.ok() ? "[" + std::to_string(peer->min) + ", " +
                        std::to_string(peer->max) + "]"
                  : "(unparseable range)";
    return Status::InvalidArgument(
        "remote handshake: worker speaks wire versions " + peer_range +
        ", this coordinator speaks [" + std::to_string(kRemoteWireVersionMin) +
        ", " + std::to_string(kRemoteWireVersionMax) +
        "] — worker excluded from the fleet");
  }
  return Status::IOError("remote handshake: unexpected reply frame type " +
                         std::to_string(reply.type));
}

ShardInput InstalledInput::View() const {
  ShardInput view;
  view.shortlist = &shortlist;
  view.columns = &columns;
  view.y_new = &y_new;
  view.leaves.reserve(leaves.size());
  for (const RowSet& leaf : leaves) view.leaves.push_back(&leaf);
  return view;
}

Status SerializeInstallInput(int64_t epoch, const ShardInput& input,
                             const ShardPlan& plan, std::string* out) {
  if (input.shortlist == nullptr || input.columns == nullptr ||
      input.y_new == nullptr) {
    return Status::InvalidArgument(
        "SerializeInstallInput: input view has null members");
  }
  out->clear();
  wire::AppendRaw(out, kInstallMagic, sizeof(kInstallMagic));
  wire::AppendScalar(out, epoch);

  wire::AppendScalar(out, plan.num_rows);
  wire::AppendScalar(out, plan.block_rows);
  wire::AppendScalar(out, static_cast<int64_t>(plan.shards.size()));
  for (const ShardRange& shard : plan.shards) {
    wire::AppendScalar(out, shard.index);
    wire::AppendScalar(out, shard.block_begin);
    wire::AppendScalar(out, shard.block_end);
    wire::AppendScalar(out, shard.row_begin);
    wire::AppendScalar(out, shard.row_end);
  }

  wire::AppendScalar(out, static_cast<int64_t>(input.shortlist->size()));
  for (const std::string& name : *input.shortlist) AppendString(out, name);
  for (const std::string& name : *input.shortlist) {
    const std::vector<double>* column = input.columns->Find(name);
    if (column == nullptr) {
      return Status::InvalidArgument(
          "SerializeInstallInput: column cache does not cover shortlist "
          "column '" +
          name + "'");
    }
    wire::AppendVector(out, *column);
  }
  wire::AppendVector(out, *input.y_new);

  wire::AppendScalar(out, static_cast<int64_t>(input.leaves.size()));
  for (const RowSet* leaf : input.leaves) {
    if (leaf == nullptr) {
      return Status::InvalidArgument("SerializeInstallInput: null leaf");
    }
    wire::AppendVector(out, leaf->indices());
  }
  return Status::OK();
}

Result<std::unique_ptr<InstalledInput>> DeserializeInstallInput(const void* data,
                                                                size_t size) {
  const unsigned char* cursor = static_cast<const unsigned char*>(data);
  const unsigned char* end = cursor + size;
  if (static_cast<size_t>(end - cursor) < sizeof(kInstallMagic) ||
      std::memcmp(cursor, kInstallMagic, sizeof(kInstallMagic)) != 0) {
    return Malformed("bad magic");
  }
  cursor += sizeof(kInstallMagic);

  auto input = std::make_unique<InstalledInput>();
  if (!wire::ReadScalar(&cursor, end, &input->epoch)) return Malformed("epoch");

  int64_t num_shards = 0;
  if (!wire::ReadScalar(&cursor, end, &input->plan.num_rows) ||
      !wire::ReadScalar(&cursor, end, &input->plan.block_rows) ||
      !wire::ReadScalar(&cursor, end, &num_shards) || num_shards < 0 ||
      num_shards > (end - cursor) / kMinShardBytes) {
    return Malformed("plan header");
  }
  input->plan.shards.reserve(static_cast<size_t>(num_shards));
  for (int64_t i = 0; i < num_shards; ++i) {
    ShardRange shard;
    if (!wire::ReadScalar(&cursor, end, &shard.index) ||
        !wire::ReadScalar(&cursor, end, &shard.block_begin) ||
        !wire::ReadScalar(&cursor, end, &shard.block_end) ||
        !wire::ReadScalar(&cursor, end, &shard.row_begin) ||
        !wire::ReadScalar(&cursor, end, &shard.row_end)) {
      return Malformed("shard range");
    }
    input->plan.shards.push_back(shard);
  }

  int64_t num_columns = 0;
  if (!wire::ReadScalar(&cursor, end, &num_columns) || num_columns < 0 ||
      num_columns > (end - cursor) / kMinStringBytes) {
    return Malformed("shortlist count");
  }
  input->shortlist.reserve(static_cast<size_t>(num_columns));
  for (int64_t i = 0; i < num_columns; ++i) {
    std::string name;
    if (!ReadString(&cursor, end, &name)) return Malformed("shortlist name");
    input->shortlist.push_back(std::move(name));
  }
  for (int64_t i = 0; i < num_columns; ++i) {
    std::vector<double> column;
    if (!wire::ReadVector(&cursor, end, &column)) {
      return Malformed("column values");
    }
    input->columns.Insert(input->shortlist[static_cast<size_t>(i)],
                          std::move(column));
  }
  if (!wire::ReadVector(&cursor, end, &input->y_new)) {
    return Malformed("target");
  }

  int64_t num_leaves = 0;
  if (!wire::ReadScalar(&cursor, end, &num_leaves) || num_leaves < 0 ||
      num_leaves > (end - cursor) / kMinVectorBytes) {
    return Malformed("leaf count");
  }
  input->leaves.reserve(static_cast<size_t>(num_leaves));
  for (int64_t i = 0; i < num_leaves; ++i) {
    std::vector<int64_t> indices;
    if (!wire::ReadVector(&cursor, end, &indices)) return Malformed("leaf rows");
    input->leaves.emplace_back(std::move(indices));
  }
  if (cursor != end) return Malformed("trailing bytes");
  return input;
}

void SerializeExecuteRequest(int64_t epoch, int64_t shard, uint64_t run_id,
                             uint64_t parent_span, bool traced,
                             const ShardTask& task, std::string* out) {
  out->clear();
  wire::AppendScalar(out, epoch);
  wire::AppendScalar(out, shard);
  wire::AppendScalar(out, run_id);
  wire::AppendScalar(out, parent_span);
  wire::AppendScalar(out, static_cast<int32_t>(traced ? 1 : 0));
  std::string task_wire;
  task.SerializeTo(&task_wire);
  out->append(task_wire);
}

Result<RemoteTaskRequest> ParseExecuteRequest(const void* data, size_t size) {
  const unsigned char* cursor = static_cast<const unsigned char*>(data);
  const unsigned char* end = cursor + size;
  RemoteTaskRequest request;
  int32_t traced = 0;
  if (!wire::ReadScalar(&cursor, end, &request.epoch) ||
      !wire::ReadScalar(&cursor, end, &request.shard) ||
      !wire::ReadScalar(&cursor, end, &request.run_id) ||
      !wire::ReadScalar(&cursor, end, &request.parent_span) ||
      !wire::ReadScalar(&cursor, end, &traced) ||
      // Hostile flag values are rejected, not coerced: 0 and 1 are the only
      // spellings a well-formed v3 coordinator emits.
      (traced != 0 && traced != 1)) {
    return Status::IOError("ExecuteTask: malformed request header");
  }
  request.traced = traced == 1;
  CHARLES_ASSIGN_OR_RETURN(
      request.task,
      ShardTask::Deserialize(cursor, static_cast<size_t>(end - cursor)));
  return request;
}

void SerializeTracedTaskResult(const ShardTaskResult& result,
                               const std::vector<obs::SpanRecord>& spans,
                               std::string* out) {
  out->clear();
  std::string result_wire;
  result.SerializeTo(&result_wire);
  wire::AppendScalar(out, static_cast<int64_t>(result_wire.size()));
  out->append(result_wire);
  wire::AppendScalar(out, static_cast<int64_t>(spans.size()));
  for (const obs::SpanRecord& span : spans) {
    wire::AppendScalar(out, span.id);
    wire::AppendScalar(out, span.parent);
    AppendString(out, span.name);
    wire::AppendScalar(out, span.start_ns);
    wire::AppendScalar(out, span.dur_ns);
    wire::AppendScalar(out, static_cast<int64_t>(span.annotations.size()));
    for (const auto& kv : span.annotations) {
      AppendString(out, kv.first);
      AppendString(out, kv.second);
    }
  }
}

Result<TracedTaskReply> ParseTracedTaskReply(const void* data, size_t size) {
  const unsigned char* cursor = static_cast<const unsigned char*>(data);
  const unsigned char* end = cursor + size;
  auto malformed = [](const std::string& what) {
    return Status::IOError("TaskOk: malformed traced reply (" + what + ")");
  };

  int64_t result_bytes = 0;
  if (!wire::ReadScalar(&cursor, end, &result_bytes) || result_bytes < 0 ||
      result_bytes > end - cursor) {
    return malformed("result length");
  }
  TracedTaskReply reply;
  CHARLES_ASSIGN_OR_RETURN(
      reply.result,
      ShardTaskResult::Deserialize(cursor, static_cast<size_t>(result_bytes)));
  cursor += result_bytes;

  // Every span costs at least its five fixed scalars plus two length
  // prefixes; bounding the count against the remaining bytes rejects
  // hostile counts before any allocation (the install-bundle idiom).
  constexpr int64_t kMinSpanBytes = static_cast<int64_t>(7 * sizeof(int64_t));
  int64_t num_spans = 0;
  if (!wire::ReadScalar(&cursor, end, &num_spans) || num_spans < 0 ||
      num_spans > (end - cursor) / kMinSpanBytes) {
    return malformed("span count");
  }
  reply.spans.reserve(static_cast<size_t>(num_spans));
  for (int64_t i = 0; i < num_spans; ++i) {
    obs::SpanRecord span;
    if (!wire::ReadScalar(&cursor, end, &span.id) ||
        !wire::ReadScalar(&cursor, end, &span.parent) ||
        !ReadString(&cursor, end, &span.name) ||
        !wire::ReadScalar(&cursor, end, &span.start_ns) ||
        !wire::ReadScalar(&cursor, end, &span.dur_ns)) {
      return malformed("span record");
    }
    int64_t num_annotations = 0;
    if (!wire::ReadScalar(&cursor, end, &num_annotations) ||
        num_annotations < 0 ||
        num_annotations > (end - cursor) / (2 * kMinStringBytes)) {
      return malformed("annotation count");
    }
    span.annotations.reserve(static_cast<size_t>(num_annotations));
    for (int64_t a = 0; a < num_annotations; ++a) {
      std::string key;
      std::string value;
      if (!ReadString(&cursor, end, &key) || !ReadString(&cursor, end, &value)) {
        return malformed("annotation");
      }
      span.annotations.emplace_back(std::move(key), std::move(value));
    }
    reply.spans.push_back(std::move(span));
  }
  if (cursor != end) return malformed("trailing bytes");
  return reply;
}

std::string SerializeStatusPayload(const Status& status) {
  std::string out;
  wire::AppendScalar(&out, static_cast<int32_t>(status.code()));
  AppendString(&out, status.message());
  return out;
}

Status ParseStatusPayload(const std::string& payload) {
  const unsigned char* cursor =
      reinterpret_cast<const unsigned char*>(payload.data());
  const unsigned char* end = cursor + payload.size();
  int32_t code = 0;
  std::string message;
  if (!wire::ReadScalar(&cursor, end, &code) ||
      !ReadString(&cursor, end, &message) || cursor != end ||
      code <= static_cast<int32_t>(StatusCode::kOk) ||
      code > static_cast<int32_t>(StatusCode::kUnknown)) {
    return Status::IOError("TaskError: malformed status payload");
  }
  return Status(static_cast<StatusCode>(code), std::move(message));
}

}  // namespace charles
