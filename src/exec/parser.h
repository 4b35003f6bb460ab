#ifndef SCIBORQ_EXEC_PARSER_H_
#define SCIBORQ_EXEC_PARSER_H_

#include <string>

#include "exec/query.h"
#include "util/result.h"

namespace sciborq {

/// Parses the SQL-ish aggregate dialect that AggregateQuery::ToString /
/// BoundedQuery::ToString emit, so textual query logs (the raw material of
/// the paper's workload mining, §2.1) can be replayed into an
/// InterestTracker (Engine::RecordWorkload) — and, via the bounds clause,
/// re-executed under their original resource/quality contract:
///
///   SELECT COUNT(*), AVG(redshift) FROM photo_obj_all
///   WHERE (obj_class = 'GALAXY') AND (cone(ra, dec; 185, 0; r=3))
///   GROUP BY obj_class WITHIN 50 MS ERROR 5% CONFIDENCE 99%
///
/// Grammar (case-insensitive keywords):
///   bounded  := query [bounds]
///   query    := SELECT agg (',' agg)* [FROM ident] [WHERE or_expr]
///               [GROUP BY ident]
///   bounds   := [WITHIN number MS] [ERROR number '%']
///               [CONFIDENCE number '%'] [EXACT]   (at least one term)
///   agg      := (COUNT|SUM|AVG|MIN|MAX|VAR) '(' ('*' | ident) ')'
///   or_expr  := and_expr (OR and_expr)*
///   and_expr := unary (AND unary)*
///   unary    := NOT unary | '(' or_expr ')' | primary
///   primary  := ident op literal
///             | ident BETWEEN number AND number
///             | CONE '(' ident ',' ident ';' number ',' number ';'
///               ['r' '='] number ')'
///   op       := '=' | '<>' | '<' | '<=' | '>' | '>='
///   literal  := number | "'" chars "'"
/// Integer-looking numbers become int64 literals, others double.
/// Bounds validation: WITHIN budget must be positive, ERROR non-negative,
/// CONFIDENCE strictly inside (0, 100)%.
///
/// Prepared statements (ParsePreparedQuery only) additionally accept a `?`
/// parameter placeholder in the comparison-literal position (`ident op ?`)
/// and in the numeric position of `WITHIN ? MS` / `ERROR ? %`; each `?`
/// becomes a ParamSlot of the returned PreparedQuery, in text order.
/// ParseQuery/ParseBoundedQuery reject `?` with a pointer at Engine::Prepare.
///
/// Errors name the byte offset of the offending token and carry a short
/// caret excerpt of the surrounding text:
///
///   expected 'ms' at offset 30
///     ...ELECT COUNT(*) WITHIN 50 SEC...
///                                 ^
///
/// Round-trip guarantee: parsing q.ToString() produces a query whose
/// ToString() equals the original, and ParsePreparedQuery round-trips
/// PreparedQuery::ToString templates (tested in tests/parser_test.cc).

/// Full dialect: query plus the optional in-SQL bounds clause.
Result<BoundedQuery> ParseBoundedQuery(const std::string& text);

/// Full dialect plus `?` parameter placeholders — the parse-once half of the
/// prepared-statement API. Bind with BindParams (exec/query.h) or run
/// through Engine::Prepare / Engine::Execute.
Result<PreparedQuery> ParsePreparedQuery(const std::string& text);

/// Query only; fails with InvalidArgument when a bounds clause is present
/// (callers that cannot honor bounds must not silently drop them).
Result<AggregateQuery> ParseQuery(const std::string& text);

/// Parses only a predicate expression (the or_expr production).
Result<PredicatePtr> ParsePredicate(const std::string& text);

}  // namespace sciborq

#endif  // SCIBORQ_EXEC_PARSER_H_
