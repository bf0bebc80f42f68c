#ifndef CHARLES_DISTRIBUTED_REMOTE_PROTOCOL_H_
#define CHARLES_DISTRIBUTED_REMOTE_PROTOCOL_H_

/// \file
/// \brief Message vocabulary of the RemoteBackend ↔ charles_worker protocol.
///
/// Transport is net/frame.h ("CNF1" length-prefixed frames); this header
/// defines the frame *types* and their payload formats. The conversation:
///
/// ```
///   coordinator                      worker
///   ----------- kHello ------------>        version range [min, max]
///   <--- kHelloOk | kHelloReject ---        chosen version | worker's range
///   ----------- kInstallInput ----->        "CSI1" bundle, once per epoch
///   <---------- kInstallOk ---------
///   ----------- kExecuteTask ------>        epoch + shard + CTK1 task
///   <----- kTaskOk | kTaskError ----        CST1 result | encoded Status
///   ----------- kPing ------------->        health check
///   <---------- kPong --------------
///   ----------- kShutdown --------->        orderly drain (tests, CI)
///   <---------- kShutdownOk --------
/// ```
///
/// The ShardInput bundle ("CSI1") ships the shortlist columns, targets, plan
/// and leaf row sets once per (snapshot, plan) epoch; every subsequent task
/// frame carries only the epoch it expects, so a worker can detect a stale
/// or missing install and fail cleanly instead of computing over the wrong
/// snapshot. Task and result payloads reuse the CTK1/CST1 formats verbatim —
/// the same bytes SubprocessBackend pipes, so remote results merge
/// bit-identically to in-process ones.
///
/// Like every ChARLES wire format this is a same-architecture native-endian
/// protocol (common/wire.h); doubles survive the trip bit-for-bit, which is
/// what the determinism contract rests on.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "distributed/backend.h"
#include "distributed/shard_planner.h"
#include "obs/trace.h"
#include "table/row_set.h"

namespace charles {

/// \name Wire version negotiation.
///
/// The coordinator's kHello carries the closed version range it speaks; the
/// worker picks the highest version both sides support (kHelloOk) or, if the
/// ranges are disjoint, answers kHelloReject with its own range so the
/// coordinator can log a precise diagnostic and exclude the worker.
/// @{
/// Version 2: ShardTaskResult ("CST1") gained trailing batched-fold
/// diagnostics counters; a version-1 peer cannot parse the frames, so the
/// range moved past it — skewed builds are excluded at the handshake, never
/// at a confusing mid-run parse error.
///
/// Version 3: the kExecuteTask payload gained run/trace context (run_id,
/// parent span, traced flag) between the shard index and the CTK1 bytes,
/// and a *traced* task's kTaskOk reply became a composite payload (CST1
/// result + the worker's span blob) so one run yields a single
/// cross-process trace. Untraced kTaskOk replies stay raw CST1, but the
/// request layout change alone makes version 2 unparseable, so the range
/// moved past it — same policy as v1 → v2.
///
/// Version 4: the kScorePartials task kind — ShardTask ("CTK1") gained a
/// trailing score_tolerance double and ShardTaskResult ("CST1") a trailing
/// score-probes section, both serialized unconditionally, so a version-3
/// peer cannot parse either frame (and would reject the kind even if it
/// could). The range moved past it — same policy as every bump before.
///
/// Version 5: the exact-L1 task kind (tag 3) and the batched-fold
/// diagnostics counters were retired. ShardTaskResult ("CST1") lost its
/// error-probes section and the three counters, so the score-probes section
/// now follows the signal evidence directly, and ShardTask::Deserialize
/// rejects kind 3. A version-4 peer cannot parse the shorter frames, so the
/// range moved past it.
inline constexpr int32_t kRemoteWireVersionMin = 5;
inline constexpr int32_t kRemoteWireVersionMax = 5;
/// @}

/// Frame types of the remote protocol (net::Frame::type values).
enum class RemoteMessageType : int32_t {
  kHello = 1,
  kHelloOk = 2,
  kHelloReject = 3,
  kInstallInput = 4,
  kInstallOk = 5,
  kExecuteTask = 6,
  kTaskOk = 7,
  kTaskError = 8,
  kPing = 9,
  kPong = 10,
  kShutdown = 11,
  kShutdownOk = 12,
};

/// A closed wire-version range, as carried by kHello and kHelloReject.
struct RemoteVersionRange {
  int32_t min = 0;
  int32_t max = 0;
};

/// \name Handshake payloads.
/// @{
std::string SerializeVersionRange(int32_t version_min, int32_t version_max);
Result<RemoteVersionRange> ParseVersionRange(const std::string& payload);
std::string SerializeChosenVersion(int32_t version);
Result<int32_t> ParseChosenVersion(const std::string& payload);
/// @}

/// Runs the coordinator side of the handshake over a freshly connected
/// socket: sends kHello with this build's version range, awaits the reply.
/// Returns the negotiated version on kHelloOk. A kHelloReject surfaces as
/// InvalidArgument quoting both ranges — the registry's cue to exclude the
/// worker *permanently* (a version-skewed worker must never contribute to a
/// merge). Everything else (timeout, torn stream, nonsense reply) is
/// IOError — transient, retry elsewhere.
Result<int32_t> RemoteClientHandshake(int fd, int timeout_ms,
                                      int64_t max_frame_bytes);

/// \brief A worker's owned reconstruction of the coordinator's ShardInput.
///
/// The coordinator's ShardInput is a pointer view into engine-owned state;
/// on the worker those objects don't exist, so the install bundle is
/// deserialized into this owning struct and `View()` re-forms the pointer
/// view the shard kernel expects. Held in a unique_ptr so the view's
/// pointers stay stable for the lifetime of the install.
struct InstalledInput {
  int64_t epoch = 0;
  ShardPlan plan;
  std::vector<std::string> shortlist;
  ColumnCache columns;
  std::vector<double> y_old;
  std::vector<double> y_new;
  std::vector<RowSet> leaves;

  /// The kernel-facing pointer view over this owned storage. Valid while
  /// this object stays alive and unmodified.
  ShardInput View() const;
};

/// \name kInstallInput payload ("CSI1" bundle).
///
/// Layout: magic "CSI1" | epoch i64 | plan (num_rows, block_rows, shard
/// count, 5×i64 per shard) | shortlist strings | one double column per
/// shortlist entry (in shortlist order) | y_old | y_new | leaf index
/// vectors. All counts are validated against the bytes actually present
/// before any allocation.
/// @{

/// Serializes `input` (+ its plan) as epoch `epoch`. Fails if `input` does
/// not cover its own shortlist — a coordinator-side bug, caught before any
/// bytes hit the wire.
Status SerializeInstallInput(int64_t epoch, const ShardInput& input,
                             const ShardPlan& plan, std::string* out);

/// Parses a "CSI1" bundle into owning storage. Rejects bad magic,
/// truncation, over-length counts and trailing bytes with IOError.
Result<std::unique_ptr<InstalledInput>> DeserializeInstallInput(const void* data,
                                                                size_t size);
/// @}

/// \name kExecuteTask payload.
///
/// Layout (v3): epoch i64 | shard i64 | run_id u64 | parent_span u64 |
/// traced i32 | CTK1 task bytes (the remainder of the payload, exactly as
/// ShardTask::SerializeTo emits them). `run_id` tags the worker's log lines
/// whether or not tracing is on; `traced` != 0 asks the worker to record
/// spans for this task (parented under `parent_span`, the coordinator's
/// dispatch span) and return them in a composite kTaskOk reply.
/// @{

/// One parsed execute request.
struct RemoteTaskRequest {
  int64_t epoch = 0;
  int64_t shard = 0;
  uint64_t run_id = 0;       ///< run fingerprint (0 = unknown)
  uint64_t parent_span = 0;  ///< coordinator dispatch span id
  bool traced = false;       ///< record + return worker spans
  ShardTask task;
};

void SerializeExecuteRequest(int64_t epoch, int64_t shard, uint64_t run_id,
                             uint64_t parent_span, bool traced,
                             const ShardTask& task, std::string* out);
Result<RemoteTaskRequest> ParseExecuteRequest(const void* data, size_t size);
/// @}

/// \name Traced kTaskOk payload.
///
/// An untraced task's kTaskOk reply is the raw CST1 bytes (unchanged since
/// v2). A *traced* task replies with a composite payload:
/// result length i64 | CST1 bytes | span count i64 | per span (id u64 |
/// parent u64 | name string (len i64 + bytes) | start_rel_ns i64 |
/// dur_ns i64 | annotation count i64 | per annotation key string + value
/// string). Span ids are 1..count in blob order; `start_rel_ns` is relative
/// to the worker's first span, because the two processes' steady clocks
/// share no epoch — the coordinator rebases on import
/// (TraceRecorder::ImportSpans). Both sides know the request's `traced`
/// flag, so the two reply layouts are never ambiguous.
/// @{

/// A parsed composite kTaskOk reply.
struct TracedTaskReply {
  ShardTaskResult result;
  std::vector<obs::SpanRecord> spans;
};

void SerializeTracedTaskResult(const ShardTaskResult& result,
                               const std::vector<obs::SpanRecord>& spans,
                               std::string* out);
Result<TracedTaskReply> ParseTracedTaskReply(const void* data, size_t size);
/// @}

/// \name kTaskError payload: an encoded Status.
///
/// Layout: code int32 | message length i64 | message bytes. Lets a worker's
/// deterministic kernel error (bad shard index, unknown task kind) propagate
/// to the coordinator with its category intact — such errors are *not*
/// transport failures and must not trigger reassignment.
/// @{
std::string SerializeStatusPayload(const Status& status);
/// Returns the decoded (non-OK) status, or IOError if the payload itself is
/// malformed or encodes OK (a worker never errors with OK).
Status ParseStatusPayload(const std::string& payload);
/// @}

}  // namespace charles

#endif  // CHARLES_DISTRIBUTED_REMOTE_PROTOCOL_H_
