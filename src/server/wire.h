#ifndef SCIBORQ_SERVER_WIRE_H_
#define SCIBORQ_SERVER_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "api/backend.h"
#include "column/serde.h"
#include "column/value.h"
#include "exec/query.h"
#include "obs/metrics.h"
#include "obs/slowlog.h"
#include "storage/snapshot.h"
#include "util/binio.h"
#include "util/result.h"

namespace sciborq {

// ---------------------------------------------------------------------------
// SciBORQ wire protocol — the network face of the bounded-query contract.
//
// Every message travels in one *frame*:
//
//   u32 length (little-endian) | body (`length` bytes)
//
// where body = u8 version | u8 opcode | payload. Frames larger than the
// receiver's max_frame_bytes are rejected without being read.
//
// Version policy: one format per boundary. Both sides speak exactly
// kWireVersion; a frame stamped with any other version is refused with
// InvalidArgument on a kInvalid response and the connection closes. A
// layout change bumps the version and refuses older versions instead of
// branching on them. This holds until a deployed peer of another build
// exists; every peer today is built from this one tree.
//
// Responses (server -> client) echo the request opcode and carry
//   u8 status_code | string status_message | payload-if-OK
// with payload: kQuery/kExecute -> QueryOutcome, kCatalog -> u32 n +
// n TableInfo, kPrepare -> StatementInfo, kCheckpoint -> u32 count,
// kIngest -> i64 rows, kStats/kSlowLog -> their lists, others empty.
// Frame-level failures (oversized/undecodable request) are reported with
// opcode kInvalid and the connection is closed.
//
// All integers are little-endian and fixed-width; doubles are IEEE-754 bit
// patterns (NaN/Inf round-trip exactly); strings are u32 length + raw bytes.
// The encoding is bijective: encode(decode(encode(x))) == encode(x), which
// the wire tests assert byte-for-byte. Every element count is checked
// against the bytes that could back it before anything is allocated.
// ---------------------------------------------------------------------------

/// The one protocol version this build speaks.
inline constexpr uint8_t kWireVersion = 8;
/// A name the perfbench codec and response-size probes still pass to
/// EncodeOutcome/DecodeOutcome, whose version argument is ignored.
inline constexpr uint8_t kWireVersionV4 = 4;

/// Default ceiling for one frame. Generous for result batches (a row of
/// doubles is tens of bytes) while bounding a malicious length prefix.
inline constexpr int64_t kMaxFrameBytes = 64ll * 1024 * 1024;

enum class Opcode : uint8_t {
  kInvalid = 0,  ///< response-only: frame-level protocol failure
  kQuery = 1,
  kUse = 2,
  kSetBounds = 3,
  kCatalog = 4,
  kPing = 5,
  kPrepare = 6,
  kExecute = 7,
  kCloseStmt = 8,
  kCheckpoint = 9,
  kCreateTable = 10,
  kIngest = 11,
  kStats = 12,
  kSlowLog = 13,
  kDropTable = 14,
};

std::string_view OpcodeToString(Opcode op);

/// The byte-buffer primitives are shared with the on-disk storage formats;
/// see util/binio.h. The wire names remain canonical in protocol code.
using WireWriter = BinaryWriter;
using WireReader = BinaryReader;

// -- Typed encode/decode pairs ----------------------------------------------
//
// Value, Schema, Table and RetentionPolicy codecs live in column/serde.h
// and the TableOptions codec in storage/snapshot.h (all shared with the
// storage formats); they are re-exported through this header's includes.

void EncodeBounds(const QueryBounds& bounds, WireWriter* w);
Result<QueryBounds> DecodeBounds(WireReader* r);

void EncodeStatus(const Status& status, WireWriter* w);
/// The return value reports wire-decoding success; `*decoded` receives the
/// transported status (which may itself be any code, including OK).
Status DecodeStatus(WireReader* r, Status* decoded);

void EncodeEstimate(const AggregateEstimate& est, WireWriter* w);
Result<AggregateEstimate> DecodeEstimate(WireReader* r);

void EncodeAttempt(const LayerAttempt& attempt, WireWriter* w);
Result<LayerAttempt> DecodeAttempt(WireReader* r);

/// Value group_key | u32 n + n f64 values | i64 input_rows |
/// f64 population (since v8).
void EncodeResultRow(const QueryResultRow& row, WireWriter* w);
Result<QueryResultRow> DecodeResultRow(WireReader* r);

/// Mergeable Welford state of one aggregate: i64 count_only |
/// i64 count | f64 mean | f64 m2 | f64 min | f64 max. Bit-exact round trip,
/// so merging a decoded state equals merging the original.
void EncodeMoments(const AggregateMoments& m, WireWriter* w);
Result<AggregateMoments> DecodeMoments(WireReader* r);

/// QueryOutcome: the answer, its estimates and escalation trace, the
/// distributed fields (partial flag, shard counts, mergeable partials) and
/// the trace fields (query id, phase spans). The trailing byte is ignored;
/// it stays only because perfbench/ calls these two with kWireVersionV4.
void EncodeOutcome(const QueryOutcome& outcome, WireWriter* w,
                   uint8_t /*unused*/ = kWireVersion);
Result<QueryOutcome> DecodeOutcome(WireReader* r,
                                   uint8_t /*unused*/ = kWireVersion);

/// TableInfo: name, rows, schema, layers, workload counters, shard count and
/// the per-column storage block.
void EncodeTableInfo(const TableInfo& info, WireWriter* w);
Result<TableInfo> DecodeTableInfo(WireReader* r);

/// Parameter lists for kExecute: u32 count + count Values. Decode rejects a
/// count larger than the bytes that could possibly back it before
/// allocating (hostile-length defense, like ReadString).
void EncodeParams(const std::vector<Value>& params, WireWriter* w);
Result<std::vector<Value>> DecodeParams(WireReader* r);

/// kPrepare response payload: handle id, target table, normalized template
/// SQL, parameter count.
void EncodeStatementInfo(const StatementInfo& info, WireWriter* w);
Result<StatementInfo> DecodeStatementInfo(WireReader* r);

/// One phase span of a query trace (a QueryOutcome field).
void EncodeSpan(const PhaseSpan& span, WireWriter* w);
Result<PhaseSpan> DecodeSpan(WireReader* r);

/// kStats response payload: u32 count + count samples. Decode rejects a
/// count larger than the bytes that could back it, like DecodeParams.
void EncodeStatSamples(const std::vector<obs::StatSample>& samples,
                       WireWriter* w);
Result<std::vector<obs::StatSample>> DecodeStatSamples(WireReader* r);

/// kSlowLog response payload: u32 count + count entries, oldest first.
void EncodeSlowQueries(const std::vector<obs::SlowQueryEntry>& entries,
                       WireWriter* w);
Result<std::vector<obs::SlowQueryEntry>> DecodeSlowQueries(WireReader* r);

// -- Message envelopes ------------------------------------------------------

/// A request envelope: opcode and the still-encoded payload
/// (DecodeRequest(const RequestFrame&) below reads it).
struct RequestFrame {
  Opcode opcode = Opcode::kInvalid;
  std::string payload;  ///< op-specific bytes
};

/// kWireVersion | opcode | payload.
std::string EncodeRequest(Opcode op, std::string_view payload);
/// Refuses any version but kWireVersion, and unknown opcodes.
Result<RequestFrame> DecodeRequest(std::string_view body);

/// kWireVersion | opcode | status | payload (payload only when OK).
std::string EncodeResponse(Opcode op, const Status& status,
                           std::string_view payload);

struct ResponseFrame {
  Opcode opcode = Opcode::kInvalid;
  Status status;
  std::string payload;  ///< empty unless status.ok()
};
/// Refuses any version but kWireVersion, like DecodeRequest.
Result<ResponseFrame> DecodeResponse(std::string_view body);

// -- Typed requests ---------------------------------------------------------

/// One client request: the opcode plus the fields its payload carries (the
/// fields other opcodes use keep their defaults). This is the one place the
/// request payload layouts are written, for both directions:
///
///   kQuery       string sql | u8 flags (bit 0 = mergeable) |
///                string query_id ("" = the server assigns one)
///   kUse         string table
///   kSetBounds   QueryBounds
///   kPrepare     string sql
///   kExecute     i64 handle | params
///   kCloseStmt   i64 handle
///   kCheckpoint  string table               ("" = every table)
///   kCreateTable string table | Schema | TableOptions
///   kIngest      string table | Table
///   kDropTable   string table
///   kCatalog, kPing, kStats, kSlowLog: empty
struct Request {
  Request() = default;
  explicit Request(Opcode op) : opcode(op) {}

  Opcode opcode = Opcode::kInvalid;
  std::string sql;
  std::string table;
  bool mergeable = false;
  std::string query_id;
  QueryBounds bounds;
  StatementHandle handle;
  std::vector<Value> params;
  Schema schema;
  /// The table's whole config, in the snapshot and WAL codec
  /// (EncodeTableOptions): layers, tracked attributes, seed, retention.
  TableOptions options;
  Table batch;
};

/// Envelope plus payload.
std::string EncodeRequest(const Request& request);

/// Decodes a request frame's payload per its opcode. InvalidArgument on
/// truncation or trailing bytes.
Result<Request> DecodeRequest(const RequestFrame& frame);

}  // namespace sciborq

#endif  // SCIBORQ_SERVER_WIRE_H_
