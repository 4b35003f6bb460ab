#include <gtest/gtest.h>

#include "exec/parser.h"
#include "util/string_util.h"

namespace sciborq {
namespace {

TEST(ParserTest, MinimalQuery) {
  const AggregateQuery q = ParseQuery("SELECT COUNT(*)").value();
  ASSERT_EQ(q.aggregates.size(), 1u);
  EXPECT_EQ(q.aggregates[0].kind, AggKind::kCount);
  EXPECT_TRUE(q.aggregates[0].column.empty());
  EXPECT_EQ(q.filter, nullptr);
  EXPECT_TRUE(q.group_by.empty());
}

TEST(ParserTest, AllAggregateKinds) {
  const AggregateQuery q =
      ParseQuery("SELECT COUNT(*), SUM(a), AVG(b), MIN(c), MAX(d), VAR(e)")
          .value();
  ASSERT_EQ(q.aggregates.size(), 6u);
  EXPECT_EQ(q.aggregates[1].kind, AggKind::kSum);
  EXPECT_EQ(q.aggregates[2].kind, AggKind::kAvg);
  EXPECT_EQ(q.aggregates[3].kind, AggKind::kMin);
  EXPECT_EQ(q.aggregates[4].kind, AggKind::kMax);
  EXPECT_EQ(q.aggregates[5].kind, AggKind::kVariance);
  EXPECT_EQ(q.aggregates[5].column, "e");
}

TEST(ParserTest, LastAggregateAndBySugar) {
  // LAST(col) with the telemetry shorthand: `BY g` == `GROUP BY g`.
  const AggregateQuery sugar =
      ParseQuery("SELECT LAST(value) FROM telemetry BY station_id").value();
  ASSERT_EQ(sugar.aggregates.size(), 1u);
  EXPECT_EQ(sugar.aggregates[0].kind, AggKind::kLast);
  EXPECT_EQ(sugar.aggregates[0].column, "value");
  EXPECT_EQ(sugar.group_by, "station_id");
  // The canonical rendering is GROUP BY, and both spellings parse to it.
  const AggregateQuery canonical =
      ParseQuery("SELECT LAST(value) FROM telemetry GROUP BY station_id")
          .value();
  EXPECT_EQ(sugar.ToString(), canonical.ToString());
}

TEST(ParserTest, CaseInsensitiveKeywords) {
  EXPECT_TRUE(ParseQuery("select count(*) where x = 1 group by g").ok());
  EXPECT_TRUE(ParseQuery("SELECT Count(*) WHERE x = 1 GROUP BY g").ok());
}

TEST(ParserTest, Comparisons) {
  for (const char* op : {"=", "<>", "<", "<=", ">", ">="}) {
    const std::string text = std::string("SELECT COUNT(*) WHERE x ") + op + " 5";
    const AggregateQuery q = ParseQuery(text).value();
    ASSERT_NE(q.filter, nullptr) << text;
  }
}

TEST(ParserTest, LiteralTypes) {
  const auto int_q = ParseQuery("SELECT COUNT(*) WHERE x = 5").value();
  EXPECT_EQ(int_q.filter->ToString(), "x = 5");
  const auto dbl_q = ParseQuery("SELECT COUNT(*) WHERE x = 5.5").value();
  EXPECT_EQ(dbl_q.filter->ToString(), "x = 5.5");
  const auto neg_q = ParseQuery("SELECT COUNT(*) WHERE x < -2.5").value();
  EXPECT_EQ(neg_q.filter->ToString(), "x < -2.5");
  const auto str_q =
      ParseQuery("SELECT COUNT(*) WHERE cls = 'GALAXY'").value();
  EXPECT_EQ(str_q.filter->ToString(), "cls = 'GALAXY'");
}

TEST(ParserTest, BetweenAndCone) {
  const auto q = ParseQuery(
                     "SELECT AVG(z) WHERE ra BETWEEN 150 AND 160 AND "
                     "cone(ra, dec; 185, 0; r=3)")
                     .value();
  const auto points = q.PredicatePoints();
  ASSERT_EQ(points.size(), 3u);
  EXPECT_DOUBLE_EQ(points[0].value, 155.0);  // between midpoint
  EXPECT_DOUBLE_EQ(points[1].value, 185.0);
}

TEST(ParserTest, ConeAcceptsCommaSeparatorsAndNoRPrefix) {
  EXPECT_TRUE(ParsePredicate("cone(ra, dec, 185, 0, 3)").ok());
  EXPECT_TRUE(ParsePredicate("CONE(ra, dec; 185, 0; 3)").ok());
}

TEST(ParserTest, BooleanStructure) {
  const auto p = ParsePredicate(
                     "NOT (a = 1) AND (b = 2 OR c = 3)")
                     .value();
  EXPECT_EQ(p->ToString(), "(NOT (a = 1)) AND ((b = 2) OR (c = 3))");
}

TEST(ParserTest, OperatorPrecedenceAndBindsTighter) {
  const auto p = ParsePredicate("a = 1 OR b = 2 AND c = 3").value();
  EXPECT_EQ(p->ToString(), "(a = 1) OR ((b = 2) AND (c = 3))");
}

TEST(ParserTest, GroupBy) {
  const auto q = ParseQuery("SELECT COUNT(*) GROUP BY obj_class").value();
  EXPECT_EQ(q.group_by, "obj_class");
}

TEST(ParserTest, FromClause) {
  const auto q =
      ParseQuery("SELECT COUNT(*) FROM photo_obj_all WHERE x = 1").value();
  EXPECT_EQ(q.table, "photo_obj_all");
  EXPECT_EQ(q.ToString(), "SELECT COUNT(*) FROM photo_obj_all WHERE x = 1");
  EXPECT_TRUE(ParseQuery("SELECT COUNT(*)").value().table.empty());
  EXPECT_FALSE(ParseQuery("SELECT COUNT(*) FROM").ok());  // missing ident
  EXPECT_FALSE(ParseQuery("SELECT COUNT(*) FROM 5").ok());
}

TEST(ParserTest, BoundsClause) {
  const auto bq = ParseBoundedQuery(
                      "SELECT COUNT(*), AVG(r) FROM photo_obj_all "
                      "WHERE cone(ra, dec; 170, 30; r=10) "
                      "WITHIN 50 MS ERROR 5% CONFIDENCE 99%")
                      .value();
  EXPECT_EQ(bq.query.table, "photo_obj_all");
  EXPECT_TRUE(bq.bounds.any());
  EXPECT_DOUBLE_EQ(bq.bounds.time_budget_ms, 50.0);
  EXPECT_DOUBLE_EQ(bq.bounds.max_relative_error, 0.05);
  EXPECT_DOUBLE_EQ(bq.bounds.confidence, 0.99);
  EXPECT_FALSE(bq.bounds.exact);
}

TEST(ParserTest, BoundsTermsAreIndividuallyOptional) {
  EXPECT_TRUE(ParseBoundedQuery("SELECT COUNT(*) WITHIN 10 MS").ok());
  EXPECT_TRUE(ParseBoundedQuery("SELECT COUNT(*) ERROR 2.5%").ok());
  EXPECT_TRUE(ParseBoundedQuery("SELECT COUNT(*) CONFIDENCE 90%").ok());
  EXPECT_TRUE(ParseBoundedQuery("SELECT COUNT(*) EXACT").ok());
  const auto bare = ParseBoundedQuery("SELECT COUNT(*)").value();
  EXPECT_FALSE(bare.bounds.any());
}

TEST(ParserTest, ExactFlag) {
  const auto bq =
      ParseBoundedQuery("SELECT COUNT(*) FROM t EXACT").value();
  EXPECT_TRUE(bq.bounds.exact);
  // EXACT resolves to a zero error demand regardless of defaults.
  QualityBound defaults;
  defaults.max_relative_error = 0.10;
  EXPECT_DOUBLE_EQ(bq.bounds.Resolve(defaults).max_relative_error, 0.0);
}

TEST(ParserTest, BoundsResolveOverlaysDefaults) {
  const auto bq =
      ParseBoundedQuery("SELECT COUNT(*) WITHIN 250 MS").value();
  QualityBound defaults;
  defaults.max_relative_error = 0.07;
  defaults.confidence = 0.9;
  const QualityBound bound = bq.bounds.Resolve(defaults);
  EXPECT_DOUBLE_EQ(bound.time_budget_seconds, 0.25);
  EXPECT_DOUBLE_EQ(bound.max_relative_error, 0.07);  // untouched default
  EXPECT_DOUBLE_EQ(bound.confidence, 0.9);
}

TEST(ParserTest, MalformedBoundsRejected) {
  // Negative / zero budgets.
  EXPECT_FALSE(ParseBoundedQuery("SELECT COUNT(*) WITHIN -5 MS").ok());
  EXPECT_FALSE(ParseBoundedQuery("SELECT COUNT(*) WITHIN 0 MS").ok());
  // Missing units / percent signs.
  EXPECT_FALSE(ParseBoundedQuery("SELECT COUNT(*) WITHIN 5").ok());
  EXPECT_FALSE(ParseBoundedQuery("SELECT COUNT(*) ERROR 5").ok());
  EXPECT_FALSE(ParseBoundedQuery("SELECT COUNT(*) CONFIDENCE 95").ok());
  // Out-of-range percentages.
  EXPECT_FALSE(ParseBoundedQuery("SELECT COUNT(*) ERROR -1%").ok());
  EXPECT_FALSE(ParseBoundedQuery("SELECT COUNT(*) CONFIDENCE 150%").ok());
  EXPECT_FALSE(ParseBoundedQuery("SELECT COUNT(*) CONFIDENCE 100%").ok());
  EXPECT_FALSE(ParseBoundedQuery("SELECT COUNT(*) CONFIDENCE 0%").ok());
  // Terms out of order or duplicated read as trailing junk.
  EXPECT_FALSE(
      ParseBoundedQuery("SELECT COUNT(*) ERROR 5% WITHIN 10 MS").ok());
  EXPECT_FALSE(ParseBoundedQuery("SELECT COUNT(*) EXACT EXACT").ok());
}

TEST(ParserTest, ParseQueryRejectsBoundsClause) {
  // Callers that cannot honor bounds must not silently drop them.
  const auto r = ParseQuery("SELECT COUNT(*) WITHIN 50 MS");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("COUNT(*)").ok());                   // missing SELECT
  EXPECT_FALSE(ParseQuery("SELECT FROB(x)").ok());             // unknown agg
  EXPECT_FALSE(ParseQuery("SELECT SUM(*)").ok());              // * not for SUM
  EXPECT_FALSE(ParseQuery("SELECT COUNT(*) WHERE").ok());      // empty pred
  EXPECT_FALSE(ParseQuery("SELECT COUNT(*) WHERE x =").ok());  // no literal
  EXPECT_FALSE(ParseQuery("SELECT COUNT(*) WHERE x = 'a").ok());  // unterminated
  EXPECT_FALSE(ParseQuery("SELECT COUNT(*) GROUP x").ok());    // missing BY
  EXPECT_FALSE(ParseQuery("SELECT COUNT(*) trailing junk").ok());
  EXPECT_FALSE(ParseQuery("SELECT COUNT(*) WHERE x ~ 3").ok());  // bad char
}

// The round-trip guarantee: parse(ToString(q)).ToString() == q.ToString().
class RoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTrip, ToStringIsStable) {
  const AggregateQuery original = ParseQuery(GetParam()).value();
  const std::string rendered = original.ToString();
  const AggregateQuery reparsed = ParseQuery(rendered).value();
  EXPECT_EQ(reparsed.ToString(), rendered);
}

INSTANTIATE_TEST_SUITE_P(
    Queries, RoundTrip,
    ::testing::Values(
        "SELECT COUNT(*)",
        "SELECT COUNT(*), AVG(redshift) WHERE cone(ra, dec; 185, 0; r=3)",
        "SELECT SUM(r) WHERE (obj_class = 'GALAXY') AND (ra BETWEEN 150 AND "
        "160)",
        "SELECT MIN(u), MAX(u) WHERE NOT (dec < 0) GROUP BY obj_class",
        "SELECT VAR(z) WHERE (a = 1) OR (b <> 2.5) OR (c >= -3)",
        "SELECT COUNT(*) FROM photo_obj_all WHERE ra BETWEEN 150 AND 160"));

// The same guarantee for the full dialect: query + bounds clause.
class BoundedRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(BoundedRoundTrip, ToStringIsStable) {
  const BoundedQuery original = ParseBoundedQuery(GetParam()).value();
  const std::string rendered = original.ToString();
  const BoundedQuery reparsed = ParseBoundedQuery(rendered).value();
  EXPECT_EQ(reparsed.ToString(), rendered);
}

INSTANTIATE_TEST_SUITE_P(
    BoundedQueries, BoundedRoundTrip,
    ::testing::Values(
        "SELECT COUNT(*), AVG(r) FROM photo_obj_all "
        "WHERE cone(ra, dec; 170, 30; r=10) WITHIN 50 MS ERROR 5%",
        "SELECT COUNT(*) FROM t WITHIN 12.5 MS",
        "SELECT AVG(z) FROM t ERROR 2.5% CONFIDENCE 99%",
        "SELECT SUM(r) FROM t WHERE x < 3 GROUP BY g "
        "WITHIN 100 MS ERROR 1% CONFIDENCE 90%",
        "SELECT COUNT(*) FROM t EXACT",
        "SELECT COUNT(*) FROM t WITHIN 50 MS EXACT",
        "SELECT LAST(value) FROM telemetry GROUP BY station_id WITHIN 50 MS",
        "SELECT LAST(ts), LAST(value) FROM telemetry GROUP BY station_id "
        "EXACT"));

// ------------------------------------------------ prepared statements -----

TEST(PreparedParserTest, TemplateRecordsEverySlotKind) {
  const PreparedQuery p =
      ParsePreparedQuery(
          "SELECT COUNT(*), AVG(r) FROM sky WHERE ra >= ? AND cls = ? "
          "WITHIN ? MS ERROR ?% CONFIDENCE 99%")
          .value();
  ASSERT_EQ(p.num_params(), 4u);
  EXPECT_EQ(p.slots[0].kind, ParamKind::kCompareLiteral);
  EXPECT_EQ(p.slots[0].column, "ra");
  EXPECT_EQ(p.slots[1].kind, ParamKind::kCompareLiteral);
  EXPECT_EQ(p.slots[1].column, "cls");
  EXPECT_EQ(p.slots[2].kind, ParamKind::kWithinMs);
  EXPECT_EQ(p.slots[3].kind, ParamKind::kErrorPct);
  EXPECT_EQ(p.time_budget_slot, 2);
  EXPECT_EQ(p.error_slot, 3);
  // Slots record where the `?` sits in the text.
  EXPECT_EQ(p.slots[0].offset,
            std::string("SELECT COUNT(*), AVG(r) FROM sky WHERE ra >= ")
                .size());
  // Placeholder-taken terms stay unspecified in the template bounds; the
  // literal CONFIDENCE term is parsed as usual.
  EXPECT_LT(p.bounds.time_budget_ms, 0.0);
  EXPECT_LT(p.bounds.max_relative_error, 0.0);
  EXPECT_DOUBLE_EQ(p.bounds.confidence, 0.99);
  // The filter holds unbound placeholders and refuses to execute.
  ASSERT_NE(p.query.filter, nullptr);
  EXPECT_TRUE(p.query.filter->HasUnboundParams());
}

TEST(PreparedParserTest, ZeroPlaceholderTemplatesParse) {
  const PreparedQuery p =
      ParsePreparedQuery("SELECT COUNT(*) FROM t WHERE x = 5 ERROR 5%")
          .value();
  EXPECT_EQ(p.num_params(), 0u);
  EXPECT_EQ(p.time_budget_slot, -1);
  EXPECT_EQ(p.error_slot, -1);
  EXPECT_FALSE(p.query.filter->HasUnboundParams());
}

// The round-trip guarantee extends to templates: rendering a PreparedQuery
// and reparsing it reproduces the same template.
class PreparedRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(PreparedRoundTrip, ToStringIsStable) {
  const PreparedQuery original = ParsePreparedQuery(GetParam()).value();
  const std::string rendered = original.ToString();
  const PreparedQuery reparsed = ParsePreparedQuery(rendered).value();
  EXPECT_EQ(reparsed.ToString(), rendered);
  EXPECT_EQ(reparsed.num_params(), original.num_params());
  EXPECT_EQ(reparsed.time_budget_slot, original.time_budget_slot);
  EXPECT_EQ(reparsed.error_slot, original.error_slot);
}

INSTANTIATE_TEST_SUITE_P(
    Templates, PreparedRoundTrip,
    ::testing::Values(
        "SELECT COUNT(*) FROM t WHERE x = ?",
        "SELECT COUNT(*), AVG(r) FROM sky WHERE (ra >= ?) AND (cls = ?) "
        "WITHIN ? MS ERROR ?% CONFIDENCE 99%",
        "SELECT SUM(r) FROM t WHERE NOT (x < ?) GROUP BY g ERROR ?%",
        "SELECT COUNT(*) FROM t WHERE (a = ?) OR (b > 2.5) WITHIN ? MS",
        "SELECT COUNT(*) FROM t WITHIN 50 MS ERROR ?% EXACT"));

TEST(PreparedParserTest, PlaceholdersRejectedOutsidePreparedMode) {
  for (const char* sql :
       {"SELECT COUNT(*) WHERE x = ?", "SELECT COUNT(*) WITHIN ? MS",
        "SELECT COUNT(*) ERROR ?%"}) {
    const auto bounded = ParseBoundedQuery(sql);
    ASSERT_FALSE(bounded.ok()) << sql;
    EXPECT_EQ(bounded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(bounded.status().message().find("prepared"), std::string::npos)
        << "rejection should point at prepared statements: "
        << bounded.status().message();
  }
  EXPECT_FALSE(ParseQuery("SELECT COUNT(*) WHERE x = ?").ok());
  EXPECT_FALSE(ParsePredicate("x = ?").ok());
}

TEST(PreparedParserTest, PlaceholdersOnlyInComparisonAndBoundsPositions) {
  // BETWEEN bounds, cone geometry, CONFIDENCE, and the column side are all
  // literal-only positions.
  EXPECT_FALSE(ParsePreparedQuery("SELECT COUNT(*) WHERE x BETWEEN ? AND 5")
                   .ok());
  EXPECT_FALSE(
      ParsePreparedQuery("SELECT COUNT(*) WHERE cone(ra, dec; ?, 0; 3)").ok());
  EXPECT_FALSE(ParsePreparedQuery("SELECT COUNT(*) CONFIDENCE ?%").ok());
  EXPECT_FALSE(ParsePreparedQuery("SELECT COUNT(*) WHERE ? = 5").ok());
}

TEST(BindParamsTest, BindingEqualsFullyBoundSql) {
  const PreparedQuery p =
      ParsePreparedQuery(
          "SELECT COUNT(*) FROM sky WHERE (ra > ?) AND (cls = ?) "
          "WITHIN ? MS ERROR ?%")
          .value();
  const BoundedQuery bound =
      BindParams(p, {Value(185.5), Value("GALAXY"), Value(int64_t{50}),
                     Value(5.0)})
          .value();
  EXPECT_EQ(bound.ToString(),
            "SELECT COUNT(*) FROM sky WHERE (ra > 185.5) AND "
            "(cls = 'GALAXY') WITHIN 50 MS ERROR 5%");
  // The bound rendering is itself parseable SQL with the same meaning —
  // exactly what Engine::Query would run for the equivalent text.
  const BoundedQuery reparsed = ParseBoundedQuery(bound.ToString()).value();
  EXPECT_EQ(reparsed.ToString(), bound.ToString());
  EXPECT_DOUBLE_EQ(bound.bounds.time_budget_ms, 50.0);
  EXPECT_DOUBLE_EQ(bound.bounds.max_relative_error, 0.05);
  EXPECT_FALSE(bound.query.filter->HasUnboundParams());
}

TEST(BindParamsTest, TemplateSurvivesBinding) {
  const PreparedQuery p =
      ParsePreparedQuery("SELECT COUNT(*) FROM t WHERE x = ?").value();
  const std::string before = p.ToString();
  ASSERT_TRUE(BindParams(p, {Value(int64_t{1})}).ok());
  ASSERT_TRUE(BindParams(p, {Value(int64_t{2})}).ok());
  EXPECT_EQ(p.ToString(), before);  // bind clones, never mutates
}

TEST(BindParamsTest, ArityMismatchRejected) {
  const PreparedQuery p =
      ParsePreparedQuery("SELECT COUNT(*) FROM t WHERE x = ? AND y = ?")
          .value();
  for (const auto& params :
       std::vector<std::vector<Value>>{{}, {Value(1.0)},
                                       {Value(1.0), Value(2.0), Value(3.0)}}) {
    const auto bound = BindParams(p, params);
    ASSERT_FALSE(bound.ok()) << params.size() << " params";
    EXPECT_EQ(bound.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(bound.status().message().find("expects 2 parameter(s)"),
              std::string::npos)
        << bound.status().message();
  }
}

TEST(BindParamsTest, TypeAndRangeViolationsRejected) {
  // NULL into a comparison.
  const PreparedQuery cmp =
      ParsePreparedQuery("SELECT COUNT(*) FROM t WHERE x = ?").value();
  EXPECT_FALSE(BindParams(cmp, {Value::Null()}).ok());

  // A string into WITHIN, and a non-positive budget.
  const PreparedQuery within =
      ParsePreparedQuery("SELECT COUNT(*) FROM t WITHIN ? MS").value();
  const auto bad_type = BindParams(within, {Value("fast")});
  ASSERT_FALSE(bad_type.ok());
  EXPECT_EQ(bad_type.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad_type.status().message().find("must be numeric"),
            std::string::npos);
  EXPECT_FALSE(BindParams(within, {Value(0.0)}).ok());
  EXPECT_FALSE(BindParams(within, {Value(-5.0)}).ok());
  EXPECT_TRUE(BindParams(within, {Value(10.0)}).ok());

  // A negative ERROR bound.
  const PreparedQuery err =
      ParsePreparedQuery("SELECT COUNT(*) FROM t ERROR ?%").value();
  EXPECT_FALSE(BindParams(err, {Value(-1.0)}).ok());
  EXPECT_TRUE(BindParams(err, {Value(int64_t{0})}).ok());
  const BoundedQuery bound = BindParams(err, {Value(5.0)}).value();
  EXPECT_DOUBLE_EQ(bound.bounds.max_relative_error, 0.05);
}

// ----------------------------------------------- error diagnostics -----

/// Satellite requirement: parser errors name the byte offset and carry a
/// caret excerpt pointing at the offending token — for plain SQL and for
/// bounds-clause failures alike.
TEST(ParserErrorTest, PlainSqlErrorsCarryOffsetAndCaret) {
  const auto r = ParseQuery("SELECT COUNT(*) FRM sky");
  ASSERT_FALSE(r.ok());
  const std::string msg = r.status().message();
  EXPECT_NE(msg.find("at offset 16"), std::string::npos) << msg;
  EXPECT_NE(msg.find("FRM sky"), std::string::npos) << msg;  // the excerpt
  EXPECT_NE(msg.find('^'), std::string::npos) << msg;        // the caret
  // The caret column matches the offset within the excerpt line.
  const size_t caret_line = msg.rfind('\n');
  ASSERT_NE(caret_line, std::string::npos);
  EXPECT_EQ(msg.substr(caret_line), "\n  " + std::string(16, ' ') + "^");
}

TEST(ParserErrorTest, BoundsClauseErrorsCarryOffsetAndCaret) {
  const std::string sql = "SELECT COUNT(*) WITHIN 50 SEC";
  const auto r = ParseBoundedQuery(sql);
  ASSERT_FALSE(r.ok());
  const std::string msg = r.status().message();
  EXPECT_NE(msg.find("expected 'ms'"), std::string::npos) << msg;
  EXPECT_NE(msg.find(StrFormat("at offset %zu", sql.find("SEC"))),
            std::string::npos)
      << msg;
  EXPECT_NE(msg.find('^'), std::string::npos) << msg;

  // Validation failures point back at the offending number.
  const auto neg = ParseBoundedQuery("SELECT COUNT(*) ERROR -5%");
  ASSERT_FALSE(neg.ok());
  EXPECT_NE(neg.status().message().find("at offset 22"), std::string::npos)
      << neg.status().message();
  EXPECT_NE(neg.status().message().find('^'), std::string::npos);
}

TEST(ParserErrorTest, LongInputsGetElidedExcerpts) {
  // The error sits past the context window: the excerpt is elided on the
  // left, and the caret still lands on the offending token.
  const std::string padding(120, ' ');
  const auto r = ParseQuery("SELECT" + padding + "COUNT(*) FRM x");
  ASSERT_FALSE(r.ok());
  const std::string msg = r.status().message();
  EXPECT_NE(msg.find("..."), std::string::npos) << msg;
  EXPECT_NE(msg.find('^'), std::string::npos) << msg;
}

TEST(ParserErrorTest, LexerErrorsCarryOffsetAndCaret) {
  const auto bad_char = ParseQuery("SELECT COUNT(*) WHERE x @ 5");
  ASSERT_FALSE(bad_char.ok());
  EXPECT_NE(bad_char.status().message().find("unexpected character '@' at "
                                             "offset 24"),
            std::string::npos)
      << bad_char.status().message();
  const auto unterminated = ParseQuery("SELECT COUNT(*) WHERE x = 'oops");
  ASSERT_FALSE(unterminated.ok());
  EXPECT_NE(unterminated.status().message().find(
                "unterminated string literal at offset 26"),
            std::string::npos)
      << unterminated.status().message();
  EXPECT_NE(unterminated.status().message().find('^'), std::string::npos);
}

}  // namespace
}  // namespace sciborq
