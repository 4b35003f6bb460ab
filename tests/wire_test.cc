// The wire codec, one layout per message: every QueryOutcome, TableInfo,
// request and observability payload must encode/decode bit-identically
// (asserted by re-encoding and comparing bytes), and malformed bytes — every
// strict prefix, hostile counts, trailing garbage, any version stamp but
// kWireVersion — must surface as InvalidArgument, never as a crash, an
// allocation failure or wrong data.

#include "server/wire.h"

#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/engine.h"
#include "client/client.h"
#include "obs/metrics.h"
#include "obs/slowlog.h"
#include "server/server.h"
#include "server/socket.h"
#include "util/rng.h"
#include "workload/telemetry.h"

namespace sciborq {
namespace {

/// With one layout per message there is no shorter valid parse: decoding
/// any strict prefix of a valid encoding must fail.
template <typename Decode>
void ExpectEveryStrictPrefixFails(const std::string& bytes, Decode decode) {
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    WireReader r(std::string_view(bytes).substr(0, cut));
    EXPECT_FALSE(decode(&r).ok())
        << "prefix of " << cut << "/" << bytes.size() << " bytes decoded";
  }
}

/// Overwrites the u32 at `offset` (little-endian) with `value`.
std::string PatchU32(std::string bytes, size_t offset, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    bytes[offset + static_cast<size_t>(i)] =
        static_cast<char>((value >> (8 * i)) & 0xff);
  }
  return bytes;
}

std::string EncodedOutcome(const QueryOutcome& outcome) {
  WireWriter w;
  EncodeOutcome(outcome, &w);
  return w.Take();
}

/// encode -> decode -> re-encode must reproduce the original bytes: the
/// protocol is bijective, so "bit-identical round trip" is a byte equality.
void ExpectOutcomeRoundTripsBitIdentically(const QueryOutcome& outcome) {
  const std::string bytes = EncodedOutcome(outcome);
  WireReader r(bytes);
  Result<QueryOutcome> decoded = DecodeOutcome(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(r.ExpectEnd().ok());
  EXPECT_EQ(bytes, EncodedOutcome(*decoded));
  EXPECT_TRUE(EquivalentAnswers(outcome, *decoded));
  // Timing survives too (EquivalentAnswers deliberately ignores it).
  EXPECT_EQ(outcome.elapsed_seconds, decoded->elapsed_seconds);
}

AggregateEstimate MakeEstimate(double est, double half_width, bool exact,
                               int64_t n) {
  AggregateEstimate e;
  e.estimate = est;
  e.std_error = half_width / 1.96;
  e.ci_lo = est - half_width;
  e.ci_hi = est + half_width;
  e.confidence = 0.95;
  e.sample_rows = n;
  e.exact = exact;
  return e;
}

TEST(WireWriterReaderTest, PrimitivesRoundTrip) {
  WireWriter w;
  w.PutU8(0);
  w.PutU8(255);
  w.PutBool(true);
  w.PutBool(false);
  w.PutU32(0xdeadbeef);
  w.PutU64(0x0123456789abcdefull);
  w.PutI64(-42);
  w.PutF64(3.14159);
  w.PutF64(-0.0);
  w.PutF64(std::numeric_limits<double>::infinity());
  w.PutF64(std::numeric_limits<double>::quiet_NaN());
  w.PutString("hello");
  w.PutString("");
  w.PutString(std::string("nul\0byte", 8));

  WireReader r(w.buffer());
  EXPECT_EQ(0u, *r.ReadU8());
  EXPECT_EQ(255u, *r.ReadU8());
  EXPECT_TRUE(*r.ReadBool());
  EXPECT_FALSE(*r.ReadBool());
  EXPECT_EQ(0xdeadbeefu, *r.ReadU32());
  EXPECT_EQ(0x0123456789abcdefull, *r.ReadU64());
  EXPECT_EQ(-42, *r.ReadI64());
  EXPECT_EQ(3.14159, *r.ReadF64());
  const double neg_zero = *r.ReadF64();
  EXPECT_EQ(0.0, neg_zero);
  EXPECT_TRUE(std::signbit(neg_zero));  // bit pattern, not just value
  EXPECT_TRUE(std::isinf(*r.ReadF64()));
  EXPECT_TRUE(std::isnan(*r.ReadF64()));
  EXPECT_EQ("hello", *r.ReadString());
  EXPECT_EQ("", *r.ReadString());
  EXPECT_EQ(std::string("nul\0byte", 8), *r.ReadString());
  EXPECT_TRUE(r.ExpectEnd().ok());
}

TEST(WireWriterReaderTest, ReadsPastEndFail) {
  WireReader r("");
  EXPECT_FALSE(r.ReadU8().ok());
  EXPECT_FALSE(r.ReadU32().ok());
  EXPECT_FALSE(r.ReadU64().ok());
  EXPECT_FALSE(r.ReadF64().ok());
  EXPECT_FALSE(r.ReadString().ok());
}

TEST(WireWriterReaderTest, BoolRejectsNonBinaryBytes) {
  WireReader r("\x02");
  EXPECT_FALSE(r.ReadBool().ok());
}

TEST(WireWriterReaderTest, HostileStringLengthRejected) {
  // Claims 1 GiB of string payload with 3 bytes behind it.
  WireWriter w;
  w.PutU32(1u << 30);
  std::string bytes = w.Take() + "abc";
  WireReader r(bytes);
  const Result<std::string> s = r.ReadString();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, s.status().code());
}

TEST(WireWriterReaderTest, TrailingGarbageDetected) {
  WireWriter w;
  w.PutU32(7);
  std::string bytes = w.Take() + "x";
  WireReader r(bytes);
  ASSERT_TRUE(r.ReadU32().ok());
  EXPECT_FALSE(r.ExpectEnd().ok());
}

TEST(WireValueTest, AllTagsRoundTrip) {
  const std::vector<Value> values = {Value::Null(), Value(int64_t{-7}),
                                     Value(2.5), Value("GALAXY"), Value("")};
  for (const Value& v : values) {
    WireWriter w;
    EncodeValue(v, &w);
    WireReader r(w.buffer());
    Result<Value> decoded = DecodeValue(&r);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_TRUE(v == *decoded);
    EXPECT_TRUE(r.ExpectEnd().ok());
  }
}

TEST(WireValueTest, UnknownTagRejected) {
  WireReader r("\x09");
  EXPECT_FALSE(DecodeValue(&r).ok());
}

TEST(WireBoundsTest, RoundTrip) {
  QueryBounds bounds;
  bounds.time_budget_ms = 50.0;
  bounds.max_relative_error = 0.05;
  bounds.confidence = 0.99;
  bounds.exact = true;
  WireWriter w;
  EncodeBounds(bounds, &w);
  WireReader r(w.buffer());
  Result<QueryBounds> decoded = DecodeBounds(&r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(bounds.time_budget_ms, decoded->time_budget_ms);
  EXPECT_EQ(bounds.max_relative_error, decoded->max_relative_error);
  EXPECT_EQ(bounds.confidence, decoded->confidence);
  EXPECT_EQ(bounds.exact, decoded->exact);
}

TEST(WireStatusTest, EveryCodeRoundTrips) {
  const std::vector<Status> statuses = {
      Status::OK(),
      Status::InvalidArgument("bad sql"),
      Status::OutOfRange("layer 9"),
      Status::NotFound("unknown table 'x'"),
      Status::AlreadyExists("dup"),
      Status::FailedPrecondition("no tracker"),
      Status::ResourceExhausted("frame too big"),
      Status::DeadlineExceeded("50ms"),
      Status::QualityBoundExceeded("5%"),
      Status::NotImplemented("soon"),
      Status::IOError("recv"),
      Status::Internal("bug")};
  for (const Status& st : statuses) {
    WireWriter w;
    EncodeStatus(st, &w);
    WireReader r(w.buffer());
    Status decoded;
    ASSERT_TRUE(DecodeStatus(&r, &decoded).ok());
    EXPECT_TRUE(st == decoded) << st.ToString();
  }
}

TEST(WireStatusTest, UnknownCodeRejected) {
  WireWriter w;
  w.PutU8(200);
  w.PutString("???");
  WireReader r(w.buffer());
  Status decoded;
  EXPECT_FALSE(DecodeStatus(&r, &decoded).ok());
}

// -- QueryOutcome shapes ----------------------------------------------------

TEST(WireOutcomeTest, ExactUngroupedAnswer) {
  QueryOutcome outcome;
  outcome.table = "photo_obj_all";
  outcome.sql = "SELECT COUNT(*) FROM photo_obj_all EXACT";
  outcome.answered_by = "base";
  outcome.exact = true;
  outcome.error_bound_met = true;
  outcome.elapsed_seconds = 0.0125;
  QueryResultRow row;
  row.group_key = Value::Null();
  row.values = {600000.0};
  row.input_rows = 600000;
  row.population = 600000.0;
  outcome.rows.push_back(row);
  outcome.estimates = {{MakeEstimate(600000.0, 0.0, /*exact=*/true, 600000)}};
  LayerAttempt base;
  base.layer_name = "base";
  base.layer_rows = 600000;
  base.matching_rows = 600000;
  base.met_error_bound = true;
  base.is_base = true;
  outcome.attempts.push_back(base);
  ExpectOutcomeRoundTripsBitIdentically(outcome);
}

TEST(WireOutcomeTest, EstimateWithCiAndEscalationTrace) {
  QueryOutcome outcome;
  outcome.table = "photo_obj_all";
  outcome.sql = "SELECT COUNT(*), AVG(r) FROM photo_obj_all ERROR 5%";
  outcome.answered_by = "l0";
  outcome.exact = false;
  outcome.error_bound_met = true;
  outcome.elapsed_seconds = 0.0021;
  QueryResultRow row;
  row.values = {21484.4, 30.26};
  row.input_rows = 440;
  row.population = 21484.4;
  outcome.rows.push_back(row);
  outcome.estimates = {{MakeEstimate(21484.4, 1986.8, false, 440),
                        MakeEstimate(30.26, 1.08, false, 440)}};
  // Two failed layers then success — the full escalation trace, including
  // an infinite relative error (MIN/MAX-style) which must survive the trip.
  for (const char* name : {"l2", "l1"}) {
    LayerAttempt attempt;
    attempt.layer_name = name;
    attempt.layer_rows = name[1] == '2' ? 1024 : 8192;
    attempt.matching_rows = 17;
    attempt.elapsed_seconds = 0.0004;
    attempt.worst_relative_error = std::numeric_limits<double>::infinity();
    attempt.met_error_bound = false;
    outcome.attempts.push_back(attempt);
  }
  LayerAttempt success;
  success.layer_name = "l0";
  success.layer_rows = 65536;
  success.matching_rows = 440;
  success.worst_relative_error = 0.0925;
  success.met_error_bound = true;
  outcome.attempts.push_back(success);
  ExpectOutcomeRoundTripsBitIdentically(outcome);
}

// v8: a result row ends with its estimated matching population, one f64
// after input_rows; the v7 row (no population) no longer decodes.
TEST(WireOutcomeTest, ResultRowCarriesItsPopulation) {
  QueryResultRow row;
  row.group_key = Value::Null();
  row.values = {12.5};
  row.input_rows = 512;
  row.population = 4096.25;
  WireWriter w;
  EncodeResultRow(row, &w);
  WireWriter v7;
  EncodeValue(row.group_key, &v7);
  v7.PutU32(1);
  v7.PutF64(12.5);
  v7.PutI64(512);
  ASSERT_EQ(v7.buffer().size() + 8, w.buffer().size());
  EXPECT_EQ(v7.buffer(), w.buffer().substr(0, v7.buffer().size()));
  WireReader r(w.buffer());
  Result<QueryResultRow> decoded = DecodeResultRow(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(r.ExpectEnd().ok());
  EXPECT_TRUE(*decoded == row);
  WireReader short_row(v7.buffer());
  EXPECT_FALSE(DecodeResultRow(&short_row).ok());
}

TEST(WireOutcomeTest, GroupedRowsWithTypedKeys) {
  QueryOutcome outcome;
  outcome.table = "t";
  outcome.sql = "SELECT SUM(r) FROM t GROUP BY obj_class ERROR 10%";
  outcome.answered_by = "l1";
  QueryResultRow galaxy;
  galaxy.group_key = Value("GALAXY");
  galaxy.values = {123.5};
  galaxy.input_rows = 99;
  QueryResultRow star;
  star.group_key = Value(int64_t{3});
  star.values = {-7.25};
  star.input_rows = 12;
  QueryResultRow qso;
  qso.group_key = Value(2.5);
  qso.values = {0.0};
  qso.input_rows = 0;
  outcome.rows = {galaxy, star, qso};
  outcome.estimates = {{MakeEstimate(123.5, 4.0, false, 99)},
                       {MakeEstimate(-7.25, 0.5, false, 12)},
                       {MakeEstimate(0.0, 0.0, false, 0)}};
  ExpectOutcomeRoundTripsBitIdentically(outcome);
}

TEST(WireOutcomeTest, EmptyOutcomeRoundTrips) {
  QueryOutcome outcome;  // no rows, no estimates, no attempts
  ExpectOutcomeRoundTripsBitIdentically(outcome);
}

TEST(WireOutcomeTest, NanValuesSurviveAndCompareEqual) {
  // A NaN in the data (e.g. AVG over a column holding NaN doubles) must
  // round-trip bit-exactly AND still satisfy EquivalentAnswers — plain
  // double == would wrongly report a mismatch for identical answers.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  QueryOutcome outcome;
  outcome.table = "t";
  outcome.sql = "SELECT AVG(x) FROM t EXACT";
  outcome.answered_by = "base";
  outcome.exact = true;
  QueryResultRow row;
  row.values = {nan};
  row.input_rows = 3;
  outcome.rows.push_back(row);
  outcome.estimates = {{MakeEstimate(nan, 0.0, /*exact=*/true, 3)}};
  LayerAttempt attempt;
  attempt.layer_name = "base";
  attempt.worst_relative_error = nan;
  attempt.is_base = true;
  outcome.attempts.push_back(attempt);
  ExpectOutcomeRoundTripsBitIdentically(outcome);
  EXPECT_TRUE(EquivalentAnswers(outcome, outcome));
}

/// Satellite requirement: decoding any truncation of a valid message fails
/// cleanly (never crashes, never "succeeds" on partial data).
TEST(WireOutcomeTest, EveryTruncationFailsCleanly) {
  QueryOutcome outcome;
  outcome.table = "t";
  outcome.sql = "SELECT COUNT(*) FROM t ERROR 5%";
  outcome.answered_by = "l0";
  QueryResultRow row;
  row.group_key = Value("key");
  row.values = {1.0, 2.0};
  row.input_rows = 5;
  outcome.rows.push_back(row);
  outcome.estimates = {{MakeEstimate(1.0, 0.1, false, 5),
                        MakeEstimate(2.0, 0.2, false, 5)}};
  LayerAttempt attempt;
  attempt.layer_name = "l0";
  outcome.attempts.push_back(attempt);

  outcome.query_id = "q-1";
  outcome.spans = {{"parse", 0.0, 0.0001}};
  ExpectEveryStrictPrefixFails(EncodedOutcome(outcome), [](WireReader* r) {
    return DecodeOutcome(r);
  });
}

TEST(WireTableInfoTest, RoundTrip) {
  TableInfo info;
  info.name = "photo_obj_all";
  info.rows = 600000;
  info.schema = Schema({{"objid", DataType::kInt64, false},
                        {"ra", DataType::kDouble, true},
                        {"obj_class", DataType::kString, true}});
  info.layers = {{"l0", 65536, 65536, "biased"}, {"l1", 8192, 8192, "uniform"}};
  info.population_seen = 600000;
  info.biased = true;
  info.recorded_queries = 17;
  info.shards = 4;

  WireWriter w;
  EncodeTableInfo(info, &w);
  const std::string bytes = w.Take();
  WireReader r(bytes);
  Result<TableInfo> decoded = DecodeTableInfo(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(r.ExpectEnd().ok());
  WireWriter w2;
  EncodeTableInfo(*decoded, &w2);
  EXPECT_EQ(bytes, w2.buffer());
  EXPECT_EQ("photo_obj_all", decoded->name);
  EXPECT_EQ(3, decoded->schema.num_fields());
  EXPECT_EQ(DataType::kDouble, decoded->schema.field(1).type);
  EXPECT_FALSE(decoded->schema.field(0).nullable);
  ASSERT_EQ(2u, decoded->layers.size());
  EXPECT_EQ("biased", decoded->layers[0].policy);
  EXPECT_EQ(4, decoded->shards);
  ExpectEveryStrictPrefixFails(bytes, DecodeTableInfo);
}

// -- Envelopes --------------------------------------------------------------

TEST(WireEnvelopeTest, RequestRoundTrip) {
  WireWriter payload;
  payload.PutString("SELECT COUNT(*) FROM t");
  const std::string body = EncodeRequest(Opcode::kQuery, payload.buffer());
  Result<RequestFrame> decoded = DecodeRequest(body);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(Opcode::kQuery, decoded->opcode);
  WireReader r(decoded->payload);
  EXPECT_EQ("SELECT COUNT(*) FROM t", *r.ReadString());
}

TEST(WireEnvelopeTest, WrongVersionRejected) {
  // Older stamps (v1, v7) and a future one (v9) are refused the same way:
  // one version per boundary, no negotiation.
  for (const uint8_t version : {uint8_t{1}, uint8_t{7}, uint8_t{9}}) {
    std::string body = EncodeRequest(Opcode::kPing, "");
    body[0] = static_cast<char>(version);
    const Result<RequestFrame> request = DecodeRequest(body);
    ASSERT_FALSE(request.ok());
    EXPECT_EQ(StatusCode::kInvalidArgument, request.status().code());
    EXPECT_EQ("protocol version " + std::to_string(version) +
                  " not supported (this side speaks v8)",
              request.status().message());
    std::string resp = EncodeResponse(Opcode::kPing, Status::OK(), "");
    resp[0] = static_cast<char>(version);
    EXPECT_FALSE(DecodeResponse(resp).ok());
  }
}

TEST(WireEnvelopeTest, EveryOpcodeIsStampedWithTheOneVersion) {
  for (uint8_t op = static_cast<uint8_t>(Opcode::kQuery);
       op <= static_cast<uint8_t>(Opcode::kDropTable); ++op) {
    const Opcode opcode = static_cast<Opcode>(op);
    const std::string req = EncodeRequest(opcode, "xyz");
    EXPECT_EQ(kWireVersion, static_cast<uint8_t>(req[0]))
        << OpcodeToString(opcode);
    const Result<RequestFrame> decoded = DecodeRequest(req);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(opcode, decoded->opcode);
    EXPECT_EQ("xyz", decoded->payload);
    const std::string resp = EncodeResponse(opcode, Status::OK(), "");
    EXPECT_EQ(kWireVersion, static_cast<uint8_t>(resp[0]))
        << OpcodeToString(opcode);
  }
}

TEST(WireEnvelopeTest, UnknownOpcodeRejected) {
  std::string body = EncodeRequest(Opcode::kPing, "");
  for (const uint8_t op : {uint8_t{0}, uint8_t{15}, uint8_t{99}}) {
    body[1] = static_cast<char>(op);
    EXPECT_FALSE(DecodeRequest(body).ok()) << int{op};
  }
}

TEST(WireEnvelopeTest, ErrorResponseRoundTripsAndDropsPayload) {
  const Status err = Status::NotFound("unknown table 'xyz'");
  // Payload is ignored for error responses (never encoded).
  const std::string body = EncodeResponse(Opcode::kQuery, err, "IGNORED");
  Result<ResponseFrame> decoded = DecodeResponse(body);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(Opcode::kQuery, decoded->opcode);
  EXPECT_TRUE(err == decoded->status);
  EXPECT_TRUE(decoded->payload.empty());
}

TEST(WireEnvelopeTest, OkResponseCarriesPayload) {
  WireWriter payload;
  payload.PutU32(4);
  const std::string body =
      EncodeResponse(Opcode::kCatalog, Status::OK(), payload.buffer());
  Result<ResponseFrame> decoded = DecodeResponse(body);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->status.ok());
  WireReader r(decoded->payload);
  EXPECT_EQ(4u, *r.ReadU32());
}

// ----------------------------------------- prepared-statement envelopes ---

std::string EncodedParams(const std::vector<Value>& params) {
  WireWriter w;
  EncodeParams(params, &w);
  return w.Take();
}

TEST(WireParamsTest, RoundTripsBitIdentically) {
  const std::vector<Value> params = {
      Value(int64_t{-42}),
      Value(3.14159),
      Value(-0.0),
      Value(std::numeric_limits<double>::quiet_NaN()),
      Value("GALAXY"),
      Value(std::string("nul\0byte", 8)),
      Value::Null(),
      Value(""),
  };
  const std::string bytes = EncodedParams(params);
  WireReader r(bytes);
  const Result<std::vector<Value>> decoded = DecodeParams(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(r.ExpectEnd().ok());
  EXPECT_EQ(bytes, EncodedParams(*decoded));
  ASSERT_EQ(params.size(), decoded->size());
  EXPECT_TRUE((*decoded)[3].is_double());  // NaN survives as a double
  EXPECT_TRUE((*decoded)[6].is_null());

  // Empty parameter lists are legal (zero-placeholder templates).
  const std::string empty_bytes = EncodedParams({});
  WireReader empty(empty_bytes);
  EXPECT_TRUE(DecodeParams(&empty)->empty());
}

TEST(WireParamsTest, EveryTruncationFailsCleanly) {
  const std::string bytes = EncodedParams(
      {Value(int64_t{7}), Value(2.5), Value("str"), Value::Null()});
  for (size_t len = 0; len < bytes.size(); ++len) {
    WireReader r(std::string_view(bytes.data(), len));
    const Result<std::vector<Value>> decoded = DecodeParams(&r);
    EXPECT_FALSE(decoded.ok() && r.ExpectEnd().ok())
        << "truncation to " << len << " bytes decoded successfully";
  }
}

TEST(WireParamsTest, HostileCountRejectedBeforeAllocation) {
  // Claims 2^31 parameters backed by 3 bytes.
  WireWriter w;
  w.PutU32(1u << 31);
  const std::string bytes = w.Take() + "abc";
  WireReader r(bytes);
  const Result<std::vector<Value>> decoded = DecodeParams(&r);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, decoded.status().code());
}

std::string EncodedStatementInfo(const StatementInfo& info) {
  WireWriter w;
  EncodeStatementInfo(info, &w);
  return w.Take();
}

TEST(WireStatementInfoTest, RoundTripsBitIdentically) {
  StatementInfo info;
  info.handle.id = 0x1234567890ll;
  info.table = "photo_obj_all";
  info.sql = "SELECT COUNT(*) FROM photo_obj_all WHERE ra > ? ERROR ?%";
  info.num_params = 2;
  const std::string bytes = EncodedStatementInfo(info);
  WireReader r(bytes);
  const Result<StatementInfo> decoded = DecodeStatementInfo(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(r.ExpectEnd().ok());
  EXPECT_EQ(bytes, EncodedStatementInfo(*decoded));
  EXPECT_EQ(info.handle.id, decoded->handle.id);
  EXPECT_EQ(info.table, decoded->table);
  EXPECT_EQ(info.sql, decoded->sql);
  EXPECT_EQ(info.num_params, decoded->num_params);
}

TEST(WireStatementInfoTest, EveryTruncationFailsCleanly) {
  StatementInfo info;
  info.handle.id = 7;
  info.table = "t";
  info.sql = "SELECT COUNT(*) FROM t WHERE x = ?";
  info.num_params = 1;
  const std::string bytes = EncodedStatementInfo(info);
  for (size_t len = 0; len < bytes.size(); ++len) {
    WireReader r(std::string_view(bytes.data(), len));
    const Result<StatementInfo> decoded = DecodeStatementInfo(&r);
    EXPECT_FALSE(decoded.ok() && r.ExpectEnd().ok())
        << "truncation to " << len << " bytes decoded successfully";
  }
}

/// The kExecute request payload (i64 handle + params) survives every
/// truncation — the third new envelope, exercised exactly as the server
/// decodes it.
TEST(WireParamsTest, ExecuteRequestPayloadTruncationsFailCleanly) {
  WireWriter w;
  w.PutI64(42);
  EncodeParams({Value(1.5), Value("x")}, &w);
  const std::string bytes = w.Take();
  for (size_t len = 0; len < bytes.size(); ++len) {
    WireReader r(std::string_view(bytes.data(), len));
    const Result<int64_t> id = r.ReadI64();
    if (!id.ok()) continue;
    const Result<std::vector<Value>> params = DecodeParams(&r);
    EXPECT_FALSE(params.ok() && r.ExpectEnd().ok())
        << "truncation to " << len << " bytes decoded successfully";
  }
}

TEST(WireEnvelopeTest, ResponseTruncationsFailCleanly) {
  WireWriter payload;
  payload.PutString("x");
  const std::string body =
      EncodeResponse(Opcode::kQuery, Status::OK(), payload.buffer());
  // The envelope header (version, opcode, status) must detect every cut;
  // the payload's own truncations are the op decoder's job (tested above).
  for (size_t len = 0; len < 7 && len < body.size(); ++len) {
    EXPECT_FALSE(DecodeResponse(body.substr(0, len)).ok())
        << "envelope truncated to " << len << " bytes decoded";
  }
  // An error response is all envelope, so every strict prefix fails.
  const std::string error = EncodeResponse(
      Opcode::kQuery, Status::NotFound("unknown table 'xyz'"), "");
  for (size_t len = 0; len < error.size(); ++len) {
    EXPECT_FALSE(DecodeResponse(error.substr(0, len)).ok())
        << "error response truncated to " << len << " bytes decoded";
  }
}

// -- Distributed fields (partials, shard counts) -----------------------------

AggregateMoments MakeMoments(std::initializer_list<double> values,
                             int64_t count_only) {
  AggregateMoments m;
  for (double v : values) m.Add(v);
  for (int64_t i = 0; i < count_only; ++i) m.AddRowOnly();
  return m;
}

QueryOutcome MakeDistributedOutcome() {
  QueryOutcome outcome;
  outcome.table = "sky";
  outcome.sql = "SELECT COUNT(*), AVG(r) FROM sky EXACT";
  QueryResultRow row;
  row.group_key = Value::Null();
  row.values = {100.0, 17.25};
  row.input_rows = 100;
  outcome.rows.push_back(row);
  outcome.estimates.push_back({MakeEstimate(100.0, 0.0, true, 100),
                               MakeEstimate(17.25, 0.0, true, 100)});
  outcome.answered_by = "base";
  outcome.exact = true;
  outcome.error_bound_met = true;
  outcome.elapsed_seconds = 0.012;
  LayerAttempt attempt;
  attempt.layer_name = "shard0/base";
  attempt.is_base = true;
  attempt.met_error_bound = true;
  outcome.attempts.push_back(attempt);
  // The distributed fields under test.
  outcome.partial = true;
  outcome.shards_responded = 1;
  outcome.shards_total = 2;
  outcome.partials = {
      {MakeMoments({1.0, 2.0, 3.0}, 3), MakeMoments({17.0, 17.5}, 0)}};
  return outcome;
}

TEST(WireV3Test, V3OutcomeRoundTripsDistributedFields) {
  const QueryOutcome outcome = MakeDistributedOutcome();
  const std::string bytes = EncodedOutcome(outcome);
  WireReader r(bytes);
  Result<QueryOutcome> decoded = DecodeOutcome(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(r.ExpectEnd().ok());
  EXPECT_TRUE(decoded->partial);
  EXPECT_EQ(1, decoded->shards_responded);
  EXPECT_EQ(2, decoded->shards_total);
  ASSERT_EQ(1u, decoded->partials.size());
  ASSERT_EQ(2u, decoded->partials[0].size());
  EXPECT_TRUE(decoded->partials[0][0] == outcome.partials[0][0]);
  EXPECT_TRUE(decoded->partials[0][1] == outcome.partials[0][1]);
  EXPECT_EQ(bytes, EncodedOutcome(*decoded));
  ExpectEveryStrictPrefixFails(bytes, [](WireReader* reader) {
    return DecodeOutcome(reader);
  });
}

TEST(WireV3Test, MomentsRoundTripBitExactly) {
  // Merging a decoded state must equal merging the original — the codec has
  // to carry the raw Welford fields (count/mean/m2/min/max), not derived
  // quantities.
  AggregateMoments original = MakeMoments({1.5, -2.25, 1e308, 0.125}, 7);
  WireWriter w;
  EncodeMoments(original, &w);
  WireReader r(w.buffer());
  Result<AggregateMoments> decoded = DecodeMoments(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(r.ExpectEnd().ok());
  EXPECT_TRUE(original == *decoded);

  AggregateMoments other = MakeMoments({4.0, 5.5}, 1);
  AggregateMoments merged_original = original;
  merged_original.Merge(other);
  AggregateMoments merged_decoded = *decoded;
  merged_decoded.Merge(other);
  EXPECT_TRUE(merged_original == merged_decoded);
}

TEST(WireV3Test, EnvelopesCarryTheVersionByte) {
  Result<RequestFrame> req = DecodeRequest(EncodeRequest(Opcode::kQuery, ""));
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(kWireVersion, static_cast<uint8_t>(
                              EncodeRequest(Opcode::kQuery, "")[0]));
  const std::string resp = EncodeResponse(Opcode::kQuery, Status::OK(), "");
  EXPECT_EQ(kWireVersion, static_cast<uint8_t>(resp[0]));
  ASSERT_TRUE(DecodeResponse(resp).ok());
}

TEST(WireV3Test, V3OpcodesRejectOlderVersionStamps) {
  // kIngest stamped with any older version is a protocol error.
  for (const uint8_t version : {uint8_t{2}, uint8_t{3}, uint8_t{5}}) {
    std::string body = EncodeRequest(Opcode::kIngest, "payload");
    body[0] = static_cast<char>(version);
    EXPECT_FALSE(DecodeRequest(body).ok()) << int{version};
  }
  Result<RequestFrame> ok =
      DecodeRequest(EncodeRequest(Opcode::kIngest, "payload"));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(Opcode::kIngest, ok->opcode);
}

TEST(WireV3Test, HostilePartialsCountRejected) {
  // An outcome with no partials whose partials row count claims 2^32 - 1
  // rows: refused before allocating. The row count sits after the empty
  // outcome's three strings, three bools, f64, three empty lists, partial
  // flag and two shard counts.
  const std::string empty = EncodedOutcome(QueryOutcome());
  const size_t offset = 3 * 4 + 3 + 8 + 3 * 4 + 1 + 2 * 4;
  const std::string hostile = PatchU32(empty, offset, 0xFFFFFFFFu);
  WireReader r(hostile);
  const Result<QueryOutcome> decoded = DecodeOutcome(&r);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, decoded.status().code());
}

// -- Hostile counts in every Outcome/TableInfo list -----------------------------

TEST(WireHostileCountTest, OutcomeRowCountRejectedBeforeAllocation) {
  // The row count follows three empty strings, three bools and an f64.
  const std::string empty = EncodedOutcome(QueryOutcome());
  const std::string hostile = PatchU32(empty, 3 * 4 + 3 + 8, 0xFFFFFFFFu);
  WireReader r(hostile);
  const Result<QueryOutcome> decoded = DecodeOutcome(&r);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, decoded.status().code());
}

TEST(WireHostileCountTest, EveryOutcomeCountRejectedBeforeAllocation) {
  // Overwriting any four bytes with 0xFFFFFFFF must never allocate on the
  // claimed count (an std::bad_alloc fails the test). Where the four bytes
  // are a count — every list, including the nested ones — it is refused.
  const std::string bytes = EncodedOutcome(MakeDistributedOutcome());
  int refused = 0;
  for (size_t offset = 0; offset + 4 <= bytes.size(); ++offset) {
    const std::string hostile = PatchU32(bytes, offset, 0xFFFFFFFFu);
    WireReader r(hostile);
    const Result<QueryOutcome> decoded = DecodeOutcome(&r);
    if (!decoded.ok()) {
      EXPECT_EQ(StatusCode::kInvalidArgument, decoded.status().code());
      ++refused;
    }
  }
  EXPECT_GT(refused, 0);
}

TEST(WireHostileCountTest, TableInfoLayerCountRejectedBeforeAllocation) {
  TableInfo info;  // empty name, no fields, no layers
  WireWriter w;
  EncodeTableInfo(info, &w);
  // The layer count follows the name, the row count and the field count.
  const std::string hostile = PatchU32(w.Take(), 4 + 8 + 4, 0xFFFFFFFFu);
  WireReader r(hostile);
  const Result<TableInfo> decoded = DecodeTableInfo(&r);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, decoded.status().code());
}

TEST(WireHostileCountTest, ClientCatalogCountRejected) {
  // A server answering kCatalog with a 2^32 - 1 table count: the client
  // returns InvalidArgument instead of reserving that many TableInfos.
  TcpListener listener = TcpListener::Bind(0).value();
  std::thread fake_server([&listener] {
    Result<TcpConn> conn = listener.Accept();
    if (!conn.ok()) return;
    (void)conn->RecvFrame(kMaxFrameBytes);
    WireWriter payload;
    payload.PutU32(0xFFFFFFFFu);
    (void)conn->SendFrame(
        EncodeResponse(Opcode::kCatalog, Status::OK(), payload.buffer()));
    (void)conn->RecvFrame(kMaxFrameBytes);  // until the client hangs up
  });
  // Declared before the client, so the client hangs up before the join.
  struct JoinOnExit {
    std::thread* thread;
    ~JoinOnExit() { thread->join(); }
  } join{&fake_server};
  SciborqClient client =
      SciborqClient::Connect("127.0.0.1", listener.port()).value();
  const Result<std::vector<TableInfo>> tables = client.ListTables();
  EXPECT_FALSE(tables.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, tables.status().code());
}

// -- Requests -----------------------------------------------------------------

/// TableOptions with every field set: custom layers, tracked attributes, a
/// seed and a retention policy.
TableOptions EveryOption() {
  TableOptions options;
  options.layers = {{"wide", 512}, {"narrow", 64}};
  options.tracked_attributes = {{"value", 0.0, 2.5, 40}};
  options.seed = 7;
  options.retention.time_column = "ts";
  options.retention.bucket_width = 1'000;
  options.retention.window_buckets = 3;
  options.retention.checkpoint_on_evict = false;
  options.retention.last_seen_capacity = 128;
  return options;
}

/// One populated Request per opcode.
std::vector<Request> EveryRequest() {
  std::vector<Request> requests;
  for (uint8_t op = static_cast<uint8_t>(Opcode::kQuery);
       op <= static_cast<uint8_t>(Opcode::kDropTable); ++op) {
    Request request(static_cast<Opcode>(op));
    request.sql = "SELECT COUNT(*) FROM sky WHERE ra > ? ERROR 5%";
    request.table = "sky";
    request.mergeable = true;
    request.query_id = "qc-99";
    request.bounds.time_budget_ms = 50.0;
    request.bounds.exact = true;
    request.handle.id = 0x1234;
    request.params = {Value(1.5), Value("x"), Value::Null()};
    request.schema = TelemetryGenerator::TableSchema();
    request.options = EveryOption();
    request.batch = Table(TelemetryGenerator::TableSchema());
    request.batch.AppendNumericRow({1, 50, 1.5});
    requests.push_back(std::move(request));
  }
  return requests;
}

Result<Request> DecodeRequestBody(WireReader* r) {
  SCIBORQ_ASSIGN_OR_RETURN(const std::string_view body,
                           r->ReadRaw(static_cast<size_t>(r->remaining())));
  SCIBORQ_ASSIGN_OR_RETURN(const RequestFrame frame, DecodeRequest(body));
  return DecodeRequest(frame);
}

TEST(WireRequestTest, EveryOpcodeRoundTripsBitIdentically) {
  for (const Request& request : EveryRequest()) {
    const std::string body = EncodeRequest(request);
    WireReader r(body);
    const Result<Request> decoded = DecodeRequestBody(&r);
    ASSERT_TRUE(decoded.ok())
        << OpcodeToString(request.opcode) << ": "
        << decoded.status().ToString();
    EXPECT_EQ(request.opcode, decoded->opcode);
    EXPECT_EQ(body, EncodeRequest(*decoded)) << OpcodeToString(request.opcode);
  }
}

TEST(WireRequestTest, EveryOpcodeFailsOnEveryStrictPrefix) {
  for (const Request& request : EveryRequest()) {
    SCOPED_TRACE(std::string(OpcodeToString(request.opcode)));
    ExpectEveryStrictPrefixFails(EncodeRequest(request), DecodeRequestBody);
  }
}

TEST(WireV4Test, V4QueryStampTravelsThrough) {
  // The kQuery payload carries the mergeable flag and the query id a
  // coordinator propagates, so shard traces stitch into one.
  Request query(Opcode::kQuery);
  query.sql = "SELECT COUNT(*) FROM sky";
  query.mergeable = true;
  query.query_id = "qc-99";
  const std::string body = EncodeRequest(query);
  WireReader r(body);
  const Result<Request> decoded = DecodeRequestBody(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ("SELECT COUNT(*) FROM sky", decoded->sql);
  EXPECT_TRUE(decoded->mergeable);
  EXPECT_EQ("qc-99", decoded->query_id);
}

// -- Observability fields and payloads ----------------------------------------

QueryOutcome MakeTracedOutcome() {
  QueryOutcome outcome;
  outcome.table = "sky";
  outcome.sql = "SELECT COUNT(*) FROM sky ERROR 5%";
  QueryResultRow row;
  row.group_key = Value::Null();
  row.values = {512.0};
  row.input_rows = 64;
  outcome.rows.push_back(row);
  outcome.estimates.push_back({MakeEstimate(512.0, 12.0, false, 64)});
  outcome.answered_by = "l1";
  outcome.error_bound_met = true;
  outcome.elapsed_seconds = 0.0042;
  LayerAttempt attempt;
  attempt.layer_name = "l1";
  attempt.met_error_bound = true;
  outcome.attempts.push_back(attempt);
  // The trace fields under test.
  outcome.query_id = "qc-17";
  outcome.spans = {{"parse", 0.0, 0.0001},
                   {"plan", 0.0001, 0.0002},
                   {"shard0/execute", 0.0005, 0.0031}};
  return outcome;
}

std::vector<obs::StatSample> MakeSamples() {
  return {{"sciborq_queries_total", "{instance=\"server-1\"}", 42.0},
          {"sciborq_query_seconds_bucket",
           "{instance=\"server-1\",le=\"0.001\"}", 17.0},
          {"sciborq_recovery_warnings", "", 0.0}};
}

std::vector<obs::SlowQueryEntry> MakeSlowEntries() {
  obs::SlowQueryEntry e;
  e.query_id = "q-9";
  e.table = "sky";
  e.sql = "SELECT AVG(r) FROM sky WITHIN 1 MS ERROR 0.001%";
  e.asked_max_ms = 1.0;
  e.asked_max_error = 0.00001;
  e.asked_confidence = 0.95;
  e.asked_exact = false;
  e.error_bound_met = false;
  e.deadline_exceeded = true;
  e.elapsed_seconds = 0.00112;
  e.answered_by = "l0";
  e.trace = "attempt l0: ...\nspan parse: start=0.000ms dur=0.010ms";
  obs::SlowQueryEntry e2;
  e2.query_id = "qc-3";
  e2.sql = "SELECT COUNT(*) FROM sky EXACT";
  e2.asked_exact = true;
  e2.error_bound_met = true;
  return {e, e2};
}

TEST(WireV4Test, V4OutcomeRoundTripsTraceFields) {
  const QueryOutcome outcome = MakeTracedOutcome();
  const std::string bytes = EncodedOutcome(outcome);
  WireReader r(bytes);
  Result<QueryOutcome> decoded = DecodeOutcome(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(r.ExpectEnd().ok());
  EXPECT_EQ("qc-17", decoded->query_id);
  ASSERT_EQ(3u, decoded->spans.size());
  EXPECT_EQ("parse", decoded->spans[0].name);
  EXPECT_EQ("shard0/execute", decoded->spans[2].name);
  EXPECT_EQ(outcome.spans[2].start_seconds, decoded->spans[2].start_seconds);
  EXPECT_EQ(outcome.spans[2].duration_seconds,
            decoded->spans[2].duration_seconds);
  EXPECT_EQ(bytes, EncodedOutcome(*decoded));
}

TEST(WireV4Test, StatSamplesRoundTrip) {
  const std::vector<obs::StatSample> samples = MakeSamples();
  WireWriter w;
  EncodeStatSamples(samples, &w);
  const std::string bytes = w.Take();
  WireReader r(bytes);
  Result<std::vector<obs::StatSample>> decoded = DecodeStatSamples(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(r.ExpectEnd().ok());
  ASSERT_EQ(samples.size(), decoded->size());
  for (size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].name, (*decoded)[i].name);
    EXPECT_EQ(samples[i].labels, (*decoded)[i].labels);
    EXPECT_EQ(samples[i].value, (*decoded)[i].value);
  }
  WireWriter again;
  EncodeStatSamples(*decoded, &again);
  EXPECT_EQ(bytes, again.Take());
}

TEST(WireV4Test, SlowQueriesRoundTrip) {
  const std::vector<obs::SlowQueryEntry> entries = MakeSlowEntries();
  WireWriter w;
  EncodeSlowQueries(entries, &w);
  const std::string bytes = w.Take();
  WireReader r(bytes);
  Result<std::vector<obs::SlowQueryEntry>> decoded = DecodeSlowQueries(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(r.ExpectEnd().ok());
  ASSERT_EQ(entries.size(), decoded->size());
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].query_id, (*decoded)[i].query_id);
    EXPECT_EQ(entries[i].table, (*decoded)[i].table);
    EXPECT_EQ(entries[i].sql, (*decoded)[i].sql);
    EXPECT_EQ(entries[i].asked_max_ms, (*decoded)[i].asked_max_ms);
    EXPECT_EQ(entries[i].asked_max_error, (*decoded)[i].asked_max_error);
    EXPECT_EQ(entries[i].asked_confidence, (*decoded)[i].asked_confidence);
    EXPECT_EQ(entries[i].asked_exact, (*decoded)[i].asked_exact);
    EXPECT_EQ(entries[i].error_bound_met, (*decoded)[i].error_bound_met);
    EXPECT_EQ(entries[i].deadline_exceeded, (*decoded)[i].deadline_exceeded);
    EXPECT_EQ(entries[i].elapsed_seconds, (*decoded)[i].elapsed_seconds);
    EXPECT_EQ(entries[i].answered_by, (*decoded)[i].answered_by);
    EXPECT_EQ(entries[i].trace, (*decoded)[i].trace);
  }
  WireWriter again;
  EncodeSlowQueries(*decoded, &again);
  EXPECT_EQ(bytes, again.Take());
}

TEST(WireV4Test, HostileStatCountRejected) {
  // A count claiming more entries than the buffer could possibly back must
  // fail before allocating.
  WireWriter w;
  w.PutU32(0x7fffffff);
  WireReader r(w.buffer());
  Result<std::vector<obs::StatSample>> decoded = DecodeStatSamples(&r);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, decoded.status().code());

  WireReader r2(w.buffer());
  Result<std::vector<obs::SlowQueryEntry>> slow = DecodeSlowQueries(&r2);
  ASSERT_FALSE(slow.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, slow.status().code());
}

TEST(WireV4Test, TruncationFuzzNeverCrashes) {
  {
    WireWriter w;
    EncodeStatSamples(MakeSamples(), &w);
    ExpectEveryStrictPrefixFails(w.Take(), DecodeStatSamples);
  }
  {
    WireWriter w;
    EncodeSlowQueries(MakeSlowEntries(), &w);
    ExpectEveryStrictPrefixFails(w.Take(), DecodeSlowQueries);
  }
  ExpectEveryStrictPrefixFails(
      EncodedOutcome(MakeTracedOutcome()),
      [](WireReader* r) { return DecodeOutcome(r); });
}

TEST(WireV4Test, V4OpcodesRejectOlderVersionStamps) {
  for (const Opcode op : {Opcode::kStats, Opcode::kSlowLog}) {
    std::string body = EncodeRequest(op, "");
    body[0] = 3;
    EXPECT_FALSE(DecodeRequest(body).ok()) << OpcodeToString(op);
    const Result<RequestFrame> ok = DecodeRequest(EncodeRequest(op, ""));
    ASSERT_TRUE(ok.ok()) << ok.status().ToString();
    EXPECT_EQ(op, ok->opcode);
  }
}

// -- Per-column storage block -------------------------------------------------

TableInfo MakeStorageInfo() {
  TableInfo info;
  info.name = "sky";
  info.rows = 3 * 16 * 1024 + 77;
  info.population_seen = info.rows;
  info.storage = {
      {"id", "for", 409'816, 71'724},
      {"flag", "rle", 409'816, 624},
      {"ra", "plain", 409'816, 409'816},
      {"obj_class", "dict", 512'270, 201'144},
  };
  return info;
}

std::string EncodedInfo(const TableInfo& info) {
  WireWriter w;
  EncodeTableInfo(info, &w);
  return w.Take();
}

TEST(WireV5Test, V5RoundTripsStorageBlock) {
  const TableInfo info = MakeStorageInfo();
  const std::string bytes = EncodedInfo(info);
  WireReader r(bytes);
  Result<TableInfo> decoded = DecodeTableInfo(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(r.ExpectEnd().ok());
  ASSERT_EQ(decoded->storage.size(), info.storage.size());
  for (size_t i = 0; i < info.storage.size(); ++i) {
    EXPECT_EQ(decoded->storage[i].column, info.storage[i].column);
    EXPECT_EQ(decoded->storage[i].encoding, info.storage[i].encoding);
    EXPECT_EQ(decoded->storage[i].plain_bytes, info.storage[i].plain_bytes);
    EXPECT_EQ(decoded->storage[i].encoded_bytes, info.storage[i].encoded_bytes);
  }
  EXPECT_EQ(bytes, EncodedInfo(*decoded));
}

TEST(WireV5Test, HostileStorageCountFailsCleanly) {
  // A TableInfo without storage columns whose storage count (its last four
  // bytes) claims 2^31 - 1 entries: refused, not allocated.
  const std::string bytes = EncodedInfo(TableInfo());
  const std::string hostile = PatchU32(bytes, bytes.size() - 4, 0x7fffffffu);
  WireReader r(hostile);
  const Result<TableInfo> decoded = DecodeTableInfo(&r);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, decoded.status().code());
}

TEST(WireV5Test, TruncationFuzzNeverCrashes) {
  ExpectEveryStrictPrefixFails(EncodedInfo(MakeStorageInfo()),
                               DecodeTableInfo);
}

TEST(WireV5Test, DataLossStatusSurvivesTheWire) {
  // kDataLoss is the code a shard reports when asked to recover a snapshot
  // of another format version.
  WireWriter w;
  EncodeStatus(Status::DataLoss("snapshot needs a newer build"), &w);
  WireReader r(w.buffer());
  Status transported;
  ASSERT_TRUE(DecodeStatus(&r, &transported).ok());
  EXPECT_EQ(transported.code(), StatusCode::kDataLoss);
  EXPECT_EQ(transported.message(), "snapshot needs a newer build");
}

// -- Retention block and kDropTable ---------------------------------------------

RetentionPolicy WindowPolicy() {
  RetentionPolicy policy;
  policy.time_column = "ts";
  policy.bucket_width = 1'000;
  policy.window_buckets = 10;
  policy.checkpoint_on_evict = false;
  policy.last_seen_capacity = 512;
  policy.last_seen_expected_ingest = 8'192;
  return policy;
}

std::string EncodedPolicy(const RetentionPolicy& policy) {
  WireWriter w;
  EncodeRetentionPolicy(policy, &w);
  return w.Take();
}

TEST(WireV6Test, RetentionPolicyRoundTrips) {
  const RetentionPolicy policy = WindowPolicy();
  const std::string bytes = EncodedPolicy(policy);
  WireReader r(bytes);
  Result<RetentionPolicy> decoded = DecodeRetentionPolicy(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(r.ExpectEnd().ok());
  EXPECT_TRUE(*decoded == policy);
  EXPECT_EQ(EncodedPolicy(*decoded), bytes);
}

TEST(WireV6Test, DisabledPolicyIsASingleZeroByte) {
  const std::string bytes = EncodedPolicy(RetentionPolicy());
  EXPECT_EQ(bytes, std::string(1, '\0'));
  WireReader r(bytes);
  Result<RetentionPolicy> decoded = DecodeRetentionPolicy(&r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded->enabled());
}

TEST(WireV6Test, HostilePolicyFieldsRejected) {
  // Flag set but empty time_column.
  {
    WireWriter w;
    w.PutBool(true);
    w.PutString("");
    w.PutI64(1'000);
    w.PutI64(10);
    w.PutBool(true);
    w.PutI64(512);
    w.PutI64(8'192);
    WireReader r(w.buffer());
    EXPECT_FALSE(DecodeRetentionPolicy(&r).ok());
  }
  // Non-positive geometry and capacities.
  const auto rejects = [](int64_t width, int64_t window, int64_t capacity,
                          int64_t expected) {
    WireWriter w;
    w.PutBool(true);
    w.PutString("ts");
    w.PutI64(width);
    w.PutI64(window);
    w.PutBool(true);
    w.PutI64(capacity);
    w.PutI64(expected);
    WireReader r(w.buffer());
    return !DecodeRetentionPolicy(&r).ok();
  };
  EXPECT_TRUE(rejects(0, 10, 512, 8'192));
  EXPECT_TRUE(rejects(-5, 10, 512, 8'192));
  EXPECT_TRUE(rejects(1'000, 0, 512, 8'192));
  EXPECT_TRUE(rejects(1'000, 10, 0, 8'192));
  EXPECT_TRUE(rejects(1'000, 10, 512, -1));
  EXPECT_FALSE(rejects(1'000, 10, 512, 0));  // 0 = "use the default D"
}

TEST(WireV6Test, TruncationFuzzNeverCrashes) {
  ExpectEveryStrictPrefixFails(EncodedPolicy(WindowPolicy()),
                               DecodeRetentionPolicy);
  ExpectEveryStrictPrefixFails(EncodedPolicy(RetentionPolicy()),
                               DecodeRetentionPolicy);
}

TEST(WireV6Test, DropTableRequiresV6) {
  const Result<RequestFrame> current =
      DecodeRequest(EncodeRequest(Opcode::kDropTable, "t"));
  ASSERT_TRUE(current.ok()) << current.status().ToString();
  EXPECT_EQ(current->opcode, Opcode::kDropTable);
  // An older stamp is refused, for this opcode as for every other.
  for (const Opcode op : {Opcode::kDropTable, Opcode::kQuery}) {
    std::string body = EncodeRequest(op, "t");
    body[0] = 5;
    EXPECT_FALSE(DecodeRequest(body).ok()) << OpcodeToString(op);
  }
}

TEST(WireV6Test, WindowedTableLifecycleOverTheWire) {
  Engine engine;
  SciborqServer server(&engine);
  ASSERT_TRUE(server.Start().ok());
  SciborqClient client =
      SciborqClient::Connect("127.0.0.1", server.port()).value();

  RetentionPolicy policy = WindowPolicy();
  policy.bucket_width = 100;
  policy.window_buckets = 3;
  TableOptions options;
  options.seed = 7;
  options.retention = policy;
  ASSERT_TRUE(client
                  .CreateTable("telemetry", TelemetryGenerator::TableSchema(),
                               options)
                  .ok());

  Table batch(TelemetryGenerator::TableSchema());
  batch.AppendNumericRow({1, 50, 1.5});    // bucket 0 — about to age out
  batch.AppendNumericRow({2, 120, 2.5});
  batch.AppendNumericRow({1, 380, 3.5});   // advances the window past 0
  EXPECT_EQ(client.Ingest("telemetry", batch).value(), 3);

  const QueryOutcome exact =
      client.Query("SELECT LAST(value) FROM telemetry BY station_id EXACT")
          .value();
  ASSERT_EQ(exact.rows.size(), 2u);
  EXPECT_EQ(exact.rows[0].values[0], 3.5);
  EXPECT_EQ(exact.rows[1].values[0], 2.5);
  const QueryOutcome count =
      client.Query("SELECT COUNT(*) FROM telemetry EXACT").value();
  EXPECT_EQ(count.rows[0].values[0], 2.0);  // the bucket-0 row was evicted

  const QueryOutcome bounded =
      client
          .Query(
              "SELECT LAST(value) FROM telemetry BY station_id WITHIN 50 MS")
          .value();
  EXPECT_EQ(bounded.answered_by, "last-seen");
  EXPECT_FALSE(bounded.exact);

  ASSERT_TRUE(client.DropTable("telemetry").ok());
  const Result<QueryOutcome> gone =
      client.Query("SELECT COUNT(*) FROM telemetry EXACT");
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(client.DropTable("telemetry").code(), StatusCode::kNotFound);
  server.Stop();
}

// -- v7: the kCreateTable payload is the table's whole config -----------------

TEST(WireV7Test, CreateTablePayloadIsSchemaThenTheTableOptionsCodec) {
  Request request(Opcode::kCreateTable);
  request.table = "telemetry";
  request.schema = TelemetryGenerator::TableSchema();
  request.options = EveryOption();
  WireWriter expected;
  expected.PutString(request.table);
  EncodeSchema(request.schema, &expected);
  EncodeTableOptions(request.options, &expected);
  const std::string body = EncodeRequest(request);
  EXPECT_EQ(EncodeRequest(Opcode::kCreateTable, expected.buffer()), body);

  WireReader r(body);
  const Result<Request> decoded = DecodeRequestBody(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  WireWriter options;
  EncodeTableOptions(decoded->options, &options);
  WireWriter original;
  EncodeTableOptions(request.options, &original);
  EXPECT_EQ(original.buffer(), options.buffer());
  ExpectEveryStrictPrefixFails(body, DecodeRequestBody);
}

TEST(WireV7Test, HostileLayerAndAttributeCountsFailBeforeAllocating) {
  const auto decode = [](uint32_t layers, uint32_t attributes) {
    WireWriter w;
    w.PutString("t");
    EncodeSchema(TelemetryGenerator::TableSchema(), &w);
    w.PutU32(layers);
    if (layers == 0) w.PutU32(attributes);
    return DecodeRequest(
        RequestFrame{Opcode::kCreateTable, std::string(w.buffer())});
  };
  for (const uint32_t count : {0xFFFFFFFFu, 1u << 24, 1u}) {
    const Result<Request> layers = decode(count, 0);
    ASSERT_FALSE(layers.ok()) << count;
    EXPECT_EQ(StatusCode::kInvalidArgument, layers.status().code());
    const Result<Request> attributes = decode(0, count);
    ASSERT_FALSE(attributes.ok()) << count;
    EXPECT_EQ(StatusCode::kInvalidArgument, attributes.status().code());
  }
}

TEST(WireV7Test, V6CreateTableFrameIsRefused) {
  // v6 wrote the seed and the retention block field by field.
  WireWriter v6;
  v6.PutString("t");
  EncodeSchema(TelemetryGenerator::TableSchema(), &v6);
  v6.PutU64(42);
  EncodeRetentionPolicy(RetentionPolicy(), &v6);
  std::string body = EncodeRequest(Opcode::kCreateTable, v6.buffer());
  body[0] = 6;
  const Result<RequestFrame> refused = DecodeRequest(body);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ("protocol version 6 not supported (this side speaks v8)",
            refused.status().message());
  // Nor does the v6 layout parse under the current stamp.
  EXPECT_FALSE(DecodeRequest(RequestFrame{Opcode::kCreateTable,
                                          std::string(v6.buffer())})
                   .ok());
}

TEST(WireV7Test, EveryTableOptionsFieldOverTheWireAnswersLikeInProcess) {
  // Custom layers, tracked attributes, seed and retention set through the
  // client build the same table as in-process: the same batches and the
  // same SQL (which also trains both trackers) give equivalent answers.
  Engine served;
  SciborqServer server(&served);
  ASSERT_TRUE(server.Start().ok());
  SciborqClient client =
      SciborqClient::Connect("127.0.0.1", server.port()).value();
  const Schema schema = TelemetryGenerator::TableSchema();
  const Status created = client.CreateTable("telemetry", schema, EveryOption());
  ASSERT_TRUE(created.ok()) << created.ToString();
  Engine local;
  ASSERT_TRUE(local.CreateTable("telemetry", schema, EveryOption()).ok());

  const std::vector<std::string> sql = {
      "SELECT COUNT(*), AVG(value) FROM telemetry "
      "WHERE value >= 20 AND value <= 30 ERROR 10%",
      "SELECT SUM(value) FROM telemetry WHERE value >= 25 AND value <= 28 "
      "ERROR 5%",
      "SELECT COUNT(*) FROM telemetry EXACT",
  };
  Rng rng(3);
  int64_t ts = 0;
  for (int round = 0; round < 5; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    Table batch(schema);
    for (int i = 0; i < 1'500; ++i) {
      ts += 2;
      batch.AppendNumericRow({static_cast<double>(i % 8),
                              static_cast<double>(ts), rng.Uniform(0, 100)});
    }
    ASSERT_EQ(1'500, client.Ingest("telemetry", batch).value());
    ASSERT_TRUE(local.IngestBatch("telemetry", batch).ok());
    for (const std::string& q : sql) {
      const QueryOutcome remote = client.Query(q).value();
      const QueryOutcome in_process = local.Query(q).value();
      EXPECT_TRUE(EquivalentAnswers(remote, in_process))
          << q << "\nremote: " << remote.ToString()
          << "\nlocal:  " << in_process.ToString();
    }
  }

  const std::vector<TableInfo> remote = client.ListTables().value();
  const std::vector<TableInfo> in_process = local.ListTables().value();
  ASSERT_EQ(1u, remote.size());
  ASSERT_EQ(1u, in_process.size());
  EXPECT_TRUE(remote[0].biased);
  EXPECT_LT(remote[0].rows, int64_t{7'500});  // the window slid
  EXPECT_EQ(in_process[0].rows, remote[0].rows);
  ASSERT_EQ(2u, remote[0].layers.size());
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(EveryOption().layers[i].name, remote[0].layers[i].name);
    EXPECT_EQ(EveryOption().layers[i].capacity, remote[0].layers[i].capacity);
    EXPECT_EQ(in_process[0].layers[i].rows, remote[0].layers[i].rows);
  }
  server.Stop();
}

}  // namespace
}  // namespace sciborq
