#include "server/wire.h"

#include <cstring>
#include <utility>

#include "util/string_util.h"

namespace sciborq {

namespace {

/// Highest StatusCode value, for validating codes off the wire. Keep in sync
/// with util/status.h (the enum is append-only).
constexpr uint8_t kMaxStatusCode = static_cast<uint8_t>(StatusCode::kDataLoss);

Result<Opcode> OpcodeFromWire(uint8_t op) {
  if (op < static_cast<uint8_t>(Opcode::kQuery) ||
      op > static_cast<uint8_t>(Opcode::kDropTable)) {
    return Status::InvalidArgument(StrFormat("wire: unknown opcode %u", op));
  }
  return static_cast<Opcode>(op);
}

Status CheckVersion(uint8_t version) {
  if (version != kWireVersion) {
    return Status::InvalidArgument(
        StrFormat("protocol version %u not supported (this side speaks v%u)",
                  version, kWireVersion));
  }
  return Status::OK();
}

/// Reads a u32 element count and refuses one the remaining bytes cannot
/// back (each element needs at least `min_bytes_each`), before any
/// allocation sized by it.
Result<uint32_t> ReadCount(WireReader* r, int64_t min_bytes_each,
                           const char* what) {
  SCIBORQ_ASSIGN_OR_RETURN(const uint32_t n, r->ReadU32());
  SCIBORQ_RETURN_NOT_OK(CheckDecodeCount(n, min_bytes_each, *r, what));
  return n;
}

}  // namespace

std::string_view OpcodeToString(Opcode op) {
  switch (op) {
    case Opcode::kInvalid:
      return "invalid";
    case Opcode::kQuery:
      return "query";
    case Opcode::kUse:
      return "use";
    case Opcode::kSetBounds:
      return "set_bounds";
    case Opcode::kCatalog:
      return "catalog";
    case Opcode::kPing:
      return "ping";
    case Opcode::kPrepare:
      return "prepare";
    case Opcode::kExecute:
      return "execute";
    case Opcode::kCloseStmt:
      return "close_stmt";
    case Opcode::kCheckpoint:
      return "checkpoint";
    case Opcode::kCreateTable:
      return "create_table";
    case Opcode::kIngest:
      return "ingest";
    case Opcode::kStats:
      return "stats";
    case Opcode::kSlowLog:
      return "slow_log";
    case Opcode::kDropTable:
      return "drop_table";
  }
  return "unknown";
}

// -- QueryBounds ------------------------------------------------------------

void EncodeBounds(const QueryBounds& bounds, WireWriter* w) {
  w->PutF64(bounds.time_budget_ms);
  w->PutF64(bounds.max_relative_error);
  w->PutF64(bounds.confidence);
  w->PutBool(bounds.exact);
}

Result<QueryBounds> DecodeBounds(WireReader* r) {
  QueryBounds bounds;
  SCIBORQ_ASSIGN_OR_RETURN(bounds.time_budget_ms, r->ReadF64());
  SCIBORQ_ASSIGN_OR_RETURN(bounds.max_relative_error, r->ReadF64());
  SCIBORQ_ASSIGN_OR_RETURN(bounds.confidence, r->ReadF64());
  SCIBORQ_ASSIGN_OR_RETURN(bounds.exact, r->ReadBool());
  return bounds;
}

// -- Status -----------------------------------------------------------------

void EncodeStatus(const Status& status, WireWriter* w) {
  w->PutU8(static_cast<uint8_t>(status.code()));
  w->PutString(status.message());
}

Status DecodeStatus(WireReader* r, Status* decoded) {
  SCIBORQ_ASSIGN_OR_RETURN(const uint8_t code, r->ReadU8());
  if (code > kMaxStatusCode) {
    return Status::InvalidArgument(
        StrFormat("wire: unknown status code %u", code));
  }
  SCIBORQ_ASSIGN_OR_RETURN(std::string message, r->ReadString());
  if (code == 0 && !message.empty()) {
    return Status::InvalidArgument("wire: OK status carries a message");
  }
  *decoded = Status(static_cast<StatusCode>(code), std::move(message));
  return Status::OK();
}

// -- AggregateEstimate ------------------------------------------------------

void EncodeEstimate(const AggregateEstimate& est, WireWriter* w) {
  w->PutF64(est.estimate);
  w->PutF64(est.std_error);
  w->PutF64(est.ci_lo);
  w->PutF64(est.ci_hi);
  w->PutF64(est.confidence);
  w->PutI64(est.sample_rows);
  w->PutBool(est.exact);
}

Result<AggregateEstimate> DecodeEstimate(WireReader* r) {
  AggregateEstimate est;
  SCIBORQ_ASSIGN_OR_RETURN(est.estimate, r->ReadF64());
  SCIBORQ_ASSIGN_OR_RETURN(est.std_error, r->ReadF64());
  SCIBORQ_ASSIGN_OR_RETURN(est.ci_lo, r->ReadF64());
  SCIBORQ_ASSIGN_OR_RETURN(est.ci_hi, r->ReadF64());
  SCIBORQ_ASSIGN_OR_RETURN(est.confidence, r->ReadF64());
  SCIBORQ_ASSIGN_OR_RETURN(est.sample_rows, r->ReadI64());
  SCIBORQ_ASSIGN_OR_RETURN(est.exact, r->ReadBool());
  return est;
}

// -- LayerAttempt -----------------------------------------------------------

void EncodeAttempt(const LayerAttempt& attempt, WireWriter* w) {
  w->PutString(attempt.layer_name);
  w->PutI64(attempt.layer_rows);
  w->PutI64(attempt.matching_rows);
  w->PutF64(attempt.elapsed_seconds);
  w->PutF64(attempt.worst_relative_error);
  w->PutBool(attempt.met_error_bound);
  w->PutBool(attempt.is_base);
}

Result<LayerAttempt> DecodeAttempt(WireReader* r) {
  LayerAttempt attempt;
  SCIBORQ_ASSIGN_OR_RETURN(attempt.layer_name, r->ReadString());
  SCIBORQ_ASSIGN_OR_RETURN(attempt.layer_rows, r->ReadI64());
  SCIBORQ_ASSIGN_OR_RETURN(attempt.matching_rows, r->ReadI64());
  SCIBORQ_ASSIGN_OR_RETURN(attempt.elapsed_seconds, r->ReadF64());
  SCIBORQ_ASSIGN_OR_RETURN(attempt.worst_relative_error, r->ReadF64());
  SCIBORQ_ASSIGN_OR_RETURN(attempt.met_error_bound, r->ReadBool());
  SCIBORQ_ASSIGN_OR_RETURN(attempt.is_base, r->ReadBool());
  return attempt;
}

// -- QueryResultRow ---------------------------------------------------------

void EncodeResultRow(const QueryResultRow& row, WireWriter* w) {
  EncodeValue(row.group_key, w);
  w->PutU32(static_cast<uint32_t>(row.values.size()));
  for (const double v : row.values) w->PutF64(v);
  w->PutI64(row.input_rows);
  w->PutF64(row.population);
}

Result<QueryResultRow> DecodeResultRow(WireReader* r) {
  QueryResultRow row;
  SCIBORQ_ASSIGN_OR_RETURN(row.group_key, DecodeValue(r));
  SCIBORQ_ASSIGN_OR_RETURN(const uint32_t n, ReadCount(r, 8, "row value"));
  row.values.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    SCIBORQ_ASSIGN_OR_RETURN(const double v, r->ReadF64());
    row.values.push_back(v);
  }
  SCIBORQ_ASSIGN_OR_RETURN(row.input_rows, r->ReadI64());
  SCIBORQ_ASSIGN_OR_RETURN(row.population, r->ReadF64());
  return row;
}

// -- AggregateMoments -------------------------------------------------------

void EncodeMoments(const AggregateMoments& m, WireWriter* w) {
  w->PutI64(m.count_only);
  w->PutI64(m.moments.count());
  w->PutF64(m.moments.mean());
  w->PutF64(m.moments.m2());
  w->PutF64(m.moments.min());
  w->PutF64(m.moments.max());
}

Result<AggregateMoments> DecodeMoments(WireReader* r) {
  AggregateMoments m;
  SCIBORQ_ASSIGN_OR_RETURN(m.count_only, r->ReadI64());
  SCIBORQ_ASSIGN_OR_RETURN(const int64_t count, r->ReadI64());
  SCIBORQ_ASSIGN_OR_RETURN(const double mean, r->ReadF64());
  SCIBORQ_ASSIGN_OR_RETURN(const double m2, r->ReadF64());
  SCIBORQ_ASSIGN_OR_RETURN(const double min, r->ReadF64());
  SCIBORQ_ASSIGN_OR_RETURN(const double max, r->ReadF64());
  m.moments = RunningMoments::FromState(count, mean, m2, min, max);
  return m;
}

// -- QueryOutcome -----------------------------------------------------------

void EncodeOutcome(const QueryOutcome& outcome, WireWriter* w, uint8_t) {
  w->PutString(outcome.table);
  w->PutString(outcome.sql);
  w->PutString(outcome.answered_by);
  w->PutBool(outcome.exact);
  w->PutBool(outcome.error_bound_met);
  w->PutBool(outcome.deadline_exceeded);
  w->PutF64(outcome.elapsed_seconds);
  w->PutU32(static_cast<uint32_t>(outcome.rows.size()));
  for (const QueryResultRow& row : outcome.rows) EncodeResultRow(row, w);
  w->PutU32(static_cast<uint32_t>(outcome.estimates.size()));
  for (const auto& row_ests : outcome.estimates) {
    w->PutU32(static_cast<uint32_t>(row_ests.size()));
    for (const AggregateEstimate& est : row_ests) EncodeEstimate(est, w);
  }
  w->PutU32(static_cast<uint32_t>(outcome.attempts.size()));
  for (const LayerAttempt& attempt : outcome.attempts) EncodeAttempt(attempt, w);
  w->PutBool(outcome.partial);
  w->PutU32(static_cast<uint32_t>(outcome.shards_responded));
  w->PutU32(static_cast<uint32_t>(outcome.shards_total));
  w->PutU32(static_cast<uint32_t>(outcome.partials.size()));
  for (const auto& row_moments : outcome.partials) {
    w->PutU32(static_cast<uint32_t>(row_moments.size()));
    for (const AggregateMoments& m : row_moments) EncodeMoments(m, w);
  }
  w->PutString(outcome.query_id);
  w->PutU32(static_cast<uint32_t>(outcome.spans.size()));
  for (const PhaseSpan& span : outcome.spans) EncodeSpan(span, w);
}

Result<QueryOutcome> DecodeOutcome(WireReader* r, uint8_t) {
  // The minimum encoded sizes below bound each count: a result row is at
  // least tag + u32 + i64 + f64, an estimate 49 bytes, an attempt 38,
  // moments 48, a span 20.
  QueryOutcome outcome;
  SCIBORQ_ASSIGN_OR_RETURN(outcome.table, r->ReadString());
  SCIBORQ_ASSIGN_OR_RETURN(outcome.sql, r->ReadString());
  SCIBORQ_ASSIGN_OR_RETURN(outcome.answered_by, r->ReadString());
  SCIBORQ_ASSIGN_OR_RETURN(outcome.exact, r->ReadBool());
  SCIBORQ_ASSIGN_OR_RETURN(outcome.error_bound_met, r->ReadBool());
  SCIBORQ_ASSIGN_OR_RETURN(outcome.deadline_exceeded, r->ReadBool());
  SCIBORQ_ASSIGN_OR_RETURN(outcome.elapsed_seconds, r->ReadF64());
  SCIBORQ_ASSIGN_OR_RETURN(const uint32_t num_rows,
                           ReadCount(r, 21, "result row"));
  outcome.rows.reserve(num_rows);
  for (uint32_t i = 0; i < num_rows; ++i) {
    SCIBORQ_ASSIGN_OR_RETURN(QueryResultRow row, DecodeResultRow(r));
    outcome.rows.push_back(std::move(row));
  }
  SCIBORQ_ASSIGN_OR_RETURN(const uint32_t num_est_rows,
                           ReadCount(r, 4, "estimate row"));
  outcome.estimates.reserve(num_est_rows);
  for (uint32_t i = 0; i < num_est_rows; ++i) {
    SCIBORQ_ASSIGN_OR_RETURN(const uint32_t n, ReadCount(r, 49, "estimate"));
    std::vector<AggregateEstimate> row_ests;
    row_ests.reserve(n);
    for (uint32_t j = 0; j < n; ++j) {
      SCIBORQ_ASSIGN_OR_RETURN(AggregateEstimate est, DecodeEstimate(r));
      row_ests.push_back(est);
    }
    outcome.estimates.push_back(std::move(row_ests));
  }
  SCIBORQ_ASSIGN_OR_RETURN(const uint32_t num_attempts,
                           ReadCount(r, 38, "layer attempt"));
  outcome.attempts.reserve(num_attempts);
  for (uint32_t i = 0; i < num_attempts; ++i) {
    SCIBORQ_ASSIGN_OR_RETURN(LayerAttempt attempt, DecodeAttempt(r));
    outcome.attempts.push_back(std::move(attempt));
  }
  SCIBORQ_ASSIGN_OR_RETURN(outcome.partial, r->ReadBool());
  SCIBORQ_ASSIGN_OR_RETURN(const uint32_t responded, r->ReadU32());
  outcome.shards_responded = static_cast<int>(responded);
  SCIBORQ_ASSIGN_OR_RETURN(const uint32_t total, r->ReadU32());
  outcome.shards_total = static_cast<int>(total);
  SCIBORQ_ASSIGN_OR_RETURN(const uint32_t num_partial_rows,
                           ReadCount(r, 4, "partials row"));
  outcome.partials.reserve(num_partial_rows);
  for (uint32_t i = 0; i < num_partial_rows; ++i) {
    SCIBORQ_ASSIGN_OR_RETURN(const uint32_t n, ReadCount(r, 48, "partial"));
    std::vector<AggregateMoments> row_moments;
    row_moments.reserve(n);
    for (uint32_t j = 0; j < n; ++j) {
      SCIBORQ_ASSIGN_OR_RETURN(AggregateMoments m, DecodeMoments(r));
      row_moments.push_back(m);
    }
    outcome.partials.push_back(std::move(row_moments));
  }
  SCIBORQ_ASSIGN_OR_RETURN(outcome.query_id, r->ReadString());
  SCIBORQ_ASSIGN_OR_RETURN(const uint32_t num_spans, ReadCount(r, 20, "span"));
  outcome.spans.reserve(num_spans);
  for (uint32_t i = 0; i < num_spans; ++i) {
    SCIBORQ_ASSIGN_OR_RETURN(PhaseSpan span, DecodeSpan(r));
    outcome.spans.push_back(std::move(span));
  }
  return outcome;
}

// -- TableInfo --------------------------------------------------------------

void EncodeTableInfo(const TableInfo& info, WireWriter* w) {
  w->PutString(info.name);
  w->PutI64(info.rows);
  EncodeSchema(info.schema, w);
  w->PutU32(static_cast<uint32_t>(info.layers.size()));
  for (const LayerSummary& layer : info.layers) {
    w->PutString(layer.name);
    w->PutI64(layer.capacity);
    w->PutI64(layer.rows);
    w->PutString(layer.policy);
  }
  w->PutI64(info.population_seen);
  w->PutBool(info.biased);
  w->PutI64(info.recorded_queries);
  w->PutU32(static_cast<uint32_t>(info.shards));
  w->PutU32(static_cast<uint32_t>(info.storage.size()));
  for (const ColumnStorageInfo& col : info.storage) {
    w->PutString(col.column);
    w->PutString(col.encoding);
    w->PutI64(col.plain_bytes);
    w->PutI64(col.encoded_bytes);
  }
}

Result<TableInfo> DecodeTableInfo(WireReader* r) {
  TableInfo info;
  SCIBORQ_ASSIGN_OR_RETURN(info.name, r->ReadString());
  SCIBORQ_ASSIGN_OR_RETURN(info.rows, r->ReadI64());
  SCIBORQ_ASSIGN_OR_RETURN(info.schema, DecodeSchema(r));
  // A layer is at least two string lengths and two i64s.
  SCIBORQ_ASSIGN_OR_RETURN(const uint32_t num_layers,
                           ReadCount(r, 24, "layer"));
  info.layers.reserve(num_layers);
  for (uint32_t i = 0; i < num_layers; ++i) {
    LayerSummary layer;
    SCIBORQ_ASSIGN_OR_RETURN(layer.name, r->ReadString());
    SCIBORQ_ASSIGN_OR_RETURN(layer.capacity, r->ReadI64());
    SCIBORQ_ASSIGN_OR_RETURN(layer.rows, r->ReadI64());
    SCIBORQ_ASSIGN_OR_RETURN(layer.policy, r->ReadString());
    info.layers.push_back(std::move(layer));
  }
  SCIBORQ_ASSIGN_OR_RETURN(info.population_seen, r->ReadI64());
  SCIBORQ_ASSIGN_OR_RETURN(info.biased, r->ReadBool());
  SCIBORQ_ASSIGN_OR_RETURN(info.recorded_queries, r->ReadI64());
  SCIBORQ_ASSIGN_OR_RETURN(const uint32_t shards, r->ReadU32());
  info.shards = static_cast<int>(shards);
  SCIBORQ_ASSIGN_OR_RETURN(const uint32_t num_columns,
                           ReadCount(r, 24, "storage column"));
  info.storage.reserve(num_columns);
  for (uint32_t i = 0; i < num_columns; ++i) {
    ColumnStorageInfo col;
    SCIBORQ_ASSIGN_OR_RETURN(col.column, r->ReadString());
    SCIBORQ_ASSIGN_OR_RETURN(col.encoding, r->ReadString());
    SCIBORQ_ASSIGN_OR_RETURN(col.plain_bytes, r->ReadI64());
    SCIBORQ_ASSIGN_OR_RETURN(col.encoded_bytes, r->ReadI64());
    info.storage.push_back(std::move(col));
  }
  return info;
}

// -- Params -----------------------------------------------------------------

void EncodeParams(const std::vector<Value>& params, WireWriter* w) {
  w->PutU32(static_cast<uint32_t>(params.size()));
  for (const Value& v : params) EncodeValue(v, w);
}

Result<std::vector<Value>> DecodeParams(WireReader* r) {
  // Every encoded Value is at least its 1-byte tag.
  SCIBORQ_ASSIGN_OR_RETURN(const uint32_t n, ReadCount(r, 1, "parameter"));
  std::vector<Value> params;
  params.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    SCIBORQ_ASSIGN_OR_RETURN(Value v, DecodeValue(r));
    params.push_back(std::move(v));
  }
  return params;
}

// -- StatementInfo ----------------------------------------------------------

void EncodeStatementInfo(const StatementInfo& info, WireWriter* w) {
  w->PutI64(info.handle.id);
  w->PutString(info.table);
  w->PutString(info.sql);
  w->PutU32(static_cast<uint32_t>(info.num_params));
}

Result<StatementInfo> DecodeStatementInfo(WireReader* r) {
  StatementInfo info;
  SCIBORQ_ASSIGN_OR_RETURN(info.handle.id, r->ReadI64());
  SCIBORQ_ASSIGN_OR_RETURN(info.table, r->ReadString());
  SCIBORQ_ASSIGN_OR_RETURN(info.sql, r->ReadString());
  SCIBORQ_ASSIGN_OR_RETURN(const uint32_t n, r->ReadU32());
  info.num_params = n;
  return info;
}

// -- PhaseSpan --------------------------------------------------------------

void EncodeSpan(const PhaseSpan& span, WireWriter* w) {
  w->PutString(span.name);
  w->PutF64(span.start_seconds);
  w->PutF64(span.duration_seconds);
}

Result<PhaseSpan> DecodeSpan(WireReader* r) {
  PhaseSpan span;
  SCIBORQ_ASSIGN_OR_RETURN(span.name, r->ReadString());
  SCIBORQ_ASSIGN_OR_RETURN(span.start_seconds, r->ReadF64());
  SCIBORQ_ASSIGN_OR_RETURN(span.duration_seconds, r->ReadF64());
  return span;
}

// -- StatSample -------------------------------------------------------------

void EncodeStatSamples(const std::vector<obs::StatSample>& samples,
                       WireWriter* w) {
  w->PutU32(static_cast<uint32_t>(samples.size()));
  for (const obs::StatSample& s : samples) {
    w->PutString(s.name);
    w->PutString(s.labels);
    w->PutF64(s.value);
  }
}

Result<std::vector<obs::StatSample>> DecodeStatSamples(WireReader* r) {
  // A sample is at least two string lengths and an f64.
  SCIBORQ_ASSIGN_OR_RETURN(const uint32_t n, ReadCount(r, 16, "stat sample"));
  std::vector<obs::StatSample> samples;
  samples.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    obs::StatSample s;
    SCIBORQ_ASSIGN_OR_RETURN(s.name, r->ReadString());
    SCIBORQ_ASSIGN_OR_RETURN(s.labels, r->ReadString());
    SCIBORQ_ASSIGN_OR_RETURN(s.value, r->ReadF64());
    samples.push_back(std::move(s));
  }
  return samples;
}

// -- SlowQueryEntry ---------------------------------------------------------

void EncodeSlowQueries(const std::vector<obs::SlowQueryEntry>& entries,
                       WireWriter* w) {
  w->PutU32(static_cast<uint32_t>(entries.size()));
  for (const obs::SlowQueryEntry& e : entries) {
    w->PutString(e.query_id);
    w->PutString(e.table);
    w->PutString(e.sql);
    w->PutF64(e.asked_max_ms);
    w->PutF64(e.asked_max_error);
    w->PutF64(e.asked_confidence);
    w->PutBool(e.asked_exact);
    w->PutBool(e.error_bound_met);
    w->PutBool(e.deadline_exceeded);
    w->PutF64(e.elapsed_seconds);
    w->PutString(e.answered_by);
    w->PutString(e.trace);
  }
}

Result<std::vector<obs::SlowQueryEntry>> DecodeSlowQueries(WireReader* r) {
  // An entry is at least five string lengths, four f64s and three bools.
  SCIBORQ_ASSIGN_OR_RETURN(const uint32_t n,
                           ReadCount(r, 55, "slow-log entry"));
  std::vector<obs::SlowQueryEntry> entries;
  entries.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    obs::SlowQueryEntry e;
    SCIBORQ_ASSIGN_OR_RETURN(e.query_id, r->ReadString());
    SCIBORQ_ASSIGN_OR_RETURN(e.table, r->ReadString());
    SCIBORQ_ASSIGN_OR_RETURN(e.sql, r->ReadString());
    SCIBORQ_ASSIGN_OR_RETURN(e.asked_max_ms, r->ReadF64());
    SCIBORQ_ASSIGN_OR_RETURN(e.asked_max_error, r->ReadF64());
    SCIBORQ_ASSIGN_OR_RETURN(e.asked_confidence, r->ReadF64());
    SCIBORQ_ASSIGN_OR_RETURN(e.asked_exact, r->ReadBool());
    SCIBORQ_ASSIGN_OR_RETURN(e.error_bound_met, r->ReadBool());
    SCIBORQ_ASSIGN_OR_RETURN(e.deadline_exceeded, r->ReadBool());
    SCIBORQ_ASSIGN_OR_RETURN(e.elapsed_seconds, r->ReadF64());
    SCIBORQ_ASSIGN_OR_RETURN(e.answered_by, r->ReadString());
    SCIBORQ_ASSIGN_OR_RETURN(e.trace, r->ReadString());
    entries.push_back(std::move(e));
  }
  return entries;
}

// -- Envelopes --------------------------------------------------------------

std::string EncodeRequest(Opcode op, std::string_view payload) {
  WireWriter w;
  w.PutU8(kWireVersion);
  w.PutU8(static_cast<uint8_t>(op));
  std::string body = w.Take();
  body.append(payload.data(), payload.size());
  return body;
}

Result<RequestFrame> DecodeRequest(std::string_view body) {
  WireReader r(body);
  SCIBORQ_ASSIGN_OR_RETURN(const uint8_t version, r.ReadU8());
  SCIBORQ_RETURN_NOT_OK(CheckVersion(version));
  SCIBORQ_ASSIGN_OR_RETURN(const uint8_t op, r.ReadU8());
  RequestFrame frame;
  SCIBORQ_ASSIGN_OR_RETURN(frame.opcode, OpcodeFromWire(op));
  frame.payload = std::string(body.substr(2));
  return frame;
}

std::string EncodeResponse(Opcode op, const Status& status,
                           std::string_view payload) {
  WireWriter w;
  w.PutU8(kWireVersion);
  w.PutU8(static_cast<uint8_t>(op));
  EncodeStatus(status, &w);
  std::string body = w.Take();
  if (status.ok()) body.append(payload.data(), payload.size());
  return body;
}

Result<ResponseFrame> DecodeResponse(std::string_view body) {
  WireReader r(body);
  SCIBORQ_ASSIGN_OR_RETURN(const uint8_t version, r.ReadU8());
  SCIBORQ_RETURN_NOT_OK(CheckVersion(version));
  SCIBORQ_ASSIGN_OR_RETURN(const uint8_t op, r.ReadU8());
  ResponseFrame frame;
  if (op != static_cast<uint8_t>(Opcode::kInvalid)) {
    SCIBORQ_ASSIGN_OR_RETURN(frame.opcode, OpcodeFromWire(op));
  }
  SCIBORQ_RETURN_NOT_OK(DecodeStatus(&r, &frame.status));
  const size_t consumed = body.size() - static_cast<size_t>(r.remaining());
  if (frame.status.ok()) {
    frame.payload = std::string(body.substr(consumed));
  } else if (r.remaining() != 0) {
    return Status::InvalidArgument(
        "wire: error response carries a payload");
  }
  return frame;
}

// -- Typed requests ---------------------------------------------------------

std::string EncodeRequest(const Request& request) {
  WireWriter w;
  switch (request.opcode) {
    case Opcode::kQuery:
      w.PutString(request.sql);
      w.PutU8(request.mergeable ? 0x1 : 0x0);
      w.PutString(request.query_id);
      break;
    case Opcode::kPrepare:
      w.PutString(request.sql);
      break;
    case Opcode::kUse:
    case Opcode::kCheckpoint:
    case Opcode::kDropTable:
      w.PutString(request.table);
      break;
    case Opcode::kSetBounds:
      EncodeBounds(request.bounds, &w);
      break;
    case Opcode::kExecute:
      w.PutI64(request.handle.id);
      EncodeParams(request.params, &w);
      break;
    case Opcode::kCloseStmt:
      w.PutI64(request.handle.id);
      break;
    case Opcode::kCreateTable:
      w.PutString(request.table);
      EncodeSchema(request.schema, &w);
      EncodeTableOptions(request.options, &w);
      break;
    case Opcode::kIngest:
      w.PutString(request.table);
      EncodeTable(request.batch, &w);
      break;
    case Opcode::kInvalid:
    case Opcode::kCatalog:
    case Opcode::kPing:
    case Opcode::kStats:
    case Opcode::kSlowLog:
      break;
  }
  return EncodeRequest(request.opcode, w.buffer());
}

Result<Request> DecodeRequest(const RequestFrame& frame) {
  WireReader r(frame.payload);
  Request request(frame.opcode);
  switch (frame.opcode) {
    case Opcode::kQuery: {
      SCIBORQ_ASSIGN_OR_RETURN(request.sql, r.ReadString());
      SCIBORQ_ASSIGN_OR_RETURN(const uint8_t flags, r.ReadU8());
      request.mergeable = (flags & 0x1) != 0;
      SCIBORQ_ASSIGN_OR_RETURN(request.query_id, r.ReadString());
      break;
    }
    case Opcode::kPrepare: {
      SCIBORQ_ASSIGN_OR_RETURN(request.sql, r.ReadString());
      break;
    }
    case Opcode::kUse:
    case Opcode::kCheckpoint:
    case Opcode::kDropTable: {
      SCIBORQ_ASSIGN_OR_RETURN(request.table, r.ReadString());
      break;
    }
    case Opcode::kSetBounds: {
      SCIBORQ_ASSIGN_OR_RETURN(request.bounds, DecodeBounds(&r));
      break;
    }
    case Opcode::kExecute: {
      SCIBORQ_ASSIGN_OR_RETURN(request.handle.id, r.ReadI64());
      SCIBORQ_ASSIGN_OR_RETURN(request.params, DecodeParams(&r));
      break;
    }
    case Opcode::kCloseStmt: {
      SCIBORQ_ASSIGN_OR_RETURN(request.handle.id, r.ReadI64());
      break;
    }
    case Opcode::kCreateTable: {
      SCIBORQ_ASSIGN_OR_RETURN(request.table, r.ReadString());
      SCIBORQ_ASSIGN_OR_RETURN(request.schema, DecodeSchema(&r));
      SCIBORQ_ASSIGN_OR_RETURN(request.options, DecodeTableOptions(&r));
      break;
    }
    case Opcode::kIngest: {
      SCIBORQ_ASSIGN_OR_RETURN(request.table, r.ReadString());
      SCIBORQ_ASSIGN_OR_RETURN(request.batch, DecodeTable(&r));
      break;
    }
    case Opcode::kInvalid:
    case Opcode::kCatalog:
    case Opcode::kPing:
    case Opcode::kStats:
    case Opcode::kSlowLog:
      break;
  }
  SCIBORQ_RETURN_NOT_OK(r.ExpectEnd());
  return request;
}

}  // namespace sciborq
