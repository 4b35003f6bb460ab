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
// Versions add opcodes and version-gated fields; the request payload
// layouts are listed once, at `Request` below.
//   v1  kQuery, kUse, kSetBounds, kCatalog, kPing — byte-identical to every
//       older build.
//   v2  prepared statements (kPrepare, kExecute, kCloseStmt) and
//       kCheckpoint.
//   v3  the distributed protocol: kCreateTable and kIngest; a kQuery flags
//       byte (bit 0 = mergeable: the shard also ships its Welford partials);
//       distributed QueryOutcome/TableInfo fields (partial flag, shard
//       counts, partials matrix; shard count).
//   v4  observability: kStats (flattened registry scrape) and kSlowLog (the
//       bound-miss ring); the kQuery query id a coordinator propagates so
//       shard traces stitch into one; QueryOutcome trace fields (query id,
//       phase spans).
//   v5  the per-column storage block in kCatalog's TableInfo.
//   v6  retention: kDropTable and the kCreateTable retention block
//       (EncodeRetentionPolicy).
//
// Negotiation is per request: a response is encoded and stamped with the
// version its request carried, so an older peer gets byte-identical older
// encodings. SciborqClient stamps every request with this build's version.
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
// the wire tests assert byte-for-byte.
// ---------------------------------------------------------------------------

/// The original opcode set. Frames carrying v1 opcodes are still encoded
/// with this version byte, so v1 request/response encodings never change.
inline constexpr uint8_t kWireVersionV1 = 1;
/// Adds kPrepare/kExecute/kCloseStmt.
inline constexpr uint8_t kWireVersionV2 = 2;
/// Adds kCreateTable/kIngest and the distributed QueryOutcome/TableInfo
/// fields (partial flag, shard counts, mergeable Welford partials).
inline constexpr uint8_t kWireVersionV3 = 3;
/// Adds kStats/kSlowLog and the trace QueryOutcome fields (query id, phase
/// spans) plus the kQuery query-id propagation field.
inline constexpr uint8_t kWireVersionV4 = 4;
/// Adds the TableInfo per-column storage block (dominant encoding and
/// plain/encoded byte footprints) to kCatalog responses.
inline constexpr uint8_t kWireVersionV5 = 5;
/// Adds kDropTable and the optional kCreateTable retention block (windowed
/// tables over the wire).
inline constexpr uint8_t kWireVersionV6 = 6;
/// Highest protocol version this build speaks.
inline constexpr uint8_t kWireVersion = kWireVersionV6;

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
  // -- v2: prepared statements --
  kPrepare = 6,
  kExecute = 7,
  kCloseStmt = 8,
  // -- v2: persistence --
  kCheckpoint = 9,
  // -- v3: distributed (coordinator -> shard ingest routing) --
  kCreateTable = 10,
  kIngest = 11,
  // -- v4: observability --
  kStats = 12,
  kSlowLog = 13,
  // -- v6: retention --
  kDropTable = 14,
};

std::string_view OpcodeToString(Opcode op);

/// The version byte a frame carrying `op` is encoded with: v1 opcodes stay
/// v1 (byte-identical to older builds), v2 opcodes are stamped v2.
uint8_t WireVersionFor(Opcode op);

/// The byte-buffer primitives are shared with the on-disk storage formats;
/// see util/binio.h. The wire names remain canonical in protocol code.
using WireWriter = BinaryWriter;
using WireReader = BinaryReader;

// -- Typed encode/decode pairs ----------------------------------------------
//
// Value and Schema codecs live in column/serde.h (shared with the storage
// formats, byte-identical to every older build of this protocol) and are
// re-exported through this header's includes.

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

void EncodeResultRow(const QueryResultRow& row, WireWriter* w);
Result<QueryResultRow> DecodeResultRow(WireReader* r);

/// Mergeable Welford state of one aggregate (v3): i64 count_only |
/// i64 count | f64 mean | f64 m2 | f64 min | f64 max. Bit-exact round trip,
/// so merging a decoded state equals merging the original.
void EncodeMoments(const AggregateMoments& m, WireWriter* w);
Result<AggregateMoments> DecodeMoments(WireReader* r);

/// Outcome/TableInfo codecs are version-gated: v1/v2 encodings are
/// byte-identical to every older build; v3 appends the distributed fields.
void EncodeOutcome(const QueryOutcome& outcome, WireWriter* w,
                   uint8_t version = kWireVersionV1);
Result<QueryOutcome> DecodeOutcome(WireReader* r,
                                   uint8_t version = kWireVersionV1);

void EncodeTableInfo(const TableInfo& info, WireWriter* w,
                     uint8_t version = kWireVersionV1);
Result<TableInfo> DecodeTableInfo(WireReader* r,
                                  uint8_t version = kWireVersionV1);

/// Parameter lists for kExecute: u32 count + count Values. Decode rejects a
/// count larger than the bytes that could possibly back it before
/// allocating (hostile-length defense, like ReadString).
void EncodeParams(const std::vector<Value>& params, WireWriter* w);
Result<std::vector<Value>> DecodeParams(WireReader* r);

/// kPrepare response payload: handle id, target table, normalized template
/// SQL, parameter count.
void EncodeStatementInfo(const StatementInfo& info, WireWriter* w);
Result<StatementInfo> DecodeStatementInfo(WireReader* r);

/// One phase span of a query trace (v4 QueryOutcome field).
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

/// The v6 kCreateTable retention block: u8 has_retention, then (when set)
/// string time_column | i64 bucket_width | i64 window_buckets |
/// u8 checkpoint_on_evict | i64 last_seen_capacity |
/// i64 last_seen_expected_ingest. A disabled policy is the single 0 byte.
/// Decode validates that an enabled policy carries positive bucket_width and
/// window_buckets — a malformed policy is refused at the wire, not at table
/// build time.
void EncodeRetentionPolicy(const RetentionPolicy& policy, WireWriter* w);
Result<RetentionPolicy> DecodeRetentionPolicy(WireReader* r);

// -- Message envelopes ------------------------------------------------------

/// A request envelope: opcode, stamped version, and the still-encoded
/// payload (DecodeRequest(const RequestFrame&) below reads it). The
/// response is encoded with the same version, so v1/v2 peers keep
/// byte-identical responses.
struct RequestFrame {
  Opcode opcode = Opcode::kInvalid;
  uint8_t version = kWireVersionV1;  ///< version byte the peer stamped
  std::string payload;               ///< op-specific bytes
};

/// version | opcode | payload. `version` 0 = the opcode's default stamp
/// (WireVersionFor — byte-identical to older builds); a caller opting into
/// v3 passes kWireVersionV3 explicitly.
std::string EncodeRequest(Opcode op, std::string_view payload,
                          uint8_t version = 0);
/// Rejects unknown versions and opcodes.
Result<RequestFrame> DecodeRequest(std::string_view body);

/// version | opcode | status | payload (payload only meaningful when OK).
/// `version` 0 = the opcode's default stamp, as in EncodeRequest.
std::string EncodeResponse(Opcode op, const Status& status,
                           std::string_view payload, uint8_t version = 0);

struct ResponseFrame {
  Opcode opcode = Opcode::kInvalid;
  uint8_t version = kWireVersionV1;  ///< version byte the server stamped
  Status status;
  std::string payload;  ///< empty unless status.ok()
};
Result<ResponseFrame> DecodeResponse(std::string_view body);

// -- Typed requests ---------------------------------------------------------

/// One client request: the opcode plus the fields its payload carries (the
/// fields other opcodes use keep their defaults). This is the one place the
/// request payload layouts are written, for both directions:
///
///   kQuery       string sql | u8 flags (v3+; bit 0 = mergeable) |
///                string query_id (v4+; "" = the server assigns one)
///   kUse         string table
///   kSetBounds   QueryBounds
///   kPrepare     string sql
///   kExecute     i64 handle | params
///   kCloseStmt   i64 handle
///   kCheckpoint  string table               ("" = every table)
///   kCreateTable string table | Schema | u64 seed | retention block (v6+)
///   kIngest      string table | Table
///   kDropTable   string table
///   kCatalog, kPing, kStats, kSlowLog: empty
struct Request {
  Request() = default;
  explicit Request(Opcode op) : opcode(op) {}

  Opcode opcode = Opcode::kInvalid;
  /// The stamp a decoded request carried (responses echo it).
  uint8_t version = kWireVersion;
  std::string sql;
  std::string table;
  bool mergeable = false;
  std::string query_id;
  QueryBounds bounds;
  StatementHandle handle;
  std::vector<Value> params;
  Schema schema;
  uint64_t seed = 42;
  RetentionPolicy retention;
  Table batch;
};

/// Envelope plus payload, always stamped with this build's version
/// (kWireVersion), so every version-gated field travels and the response
/// comes back with the newest encodings.
std::string EncodeRequest(const Request& request);

/// Decodes a request frame's payload per its opcode, reading the fields its
/// stamped version carries. InvalidArgument on truncation or trailing bytes.
Result<Request> DecodeRequest(const RequestFrame& frame);

}  // namespace sciborq

#endif  // SCIBORQ_SERVER_WIRE_H_
