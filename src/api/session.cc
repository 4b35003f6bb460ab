#include "api/session.h"

#include <algorithm>

#include "exec/parser.h"
#include "util/check.h"
#include "util/string_util.h"

namespace sciborq {

Session::Session(Backend* backend) : backend_(backend) {
  SCIBORQ_CHECK(backend_ != nullptr);
#ifndef NDEBUG
  owner_thread_ = std::this_thread::get_id();
#endif
}

Session::~Session() {
  for (const StatementHandle handle : statements_) {
    // Best-effort: the registry entry can only be missing if the backend is
    // being torn down around us, which the lifetime contract forbids anyway.
    (void)backend_->CloseStatement(handle);
  }
}

Status Session::Use(const std::string& table) {
  CheckOwningThread();
  SCIBORQ_ASSIGN_OR_RETURN(const int64_t rows, backend_->TableRows(table));
  (void)rows;  // existence check only
  table_ = table;
  return Status::OK();
}

Result<QueryOutcome> Session::Query(std::string_view sql) {
  return Query(sql, QueryExecOptions());
}

Result<QueryOutcome> Session::Query(std::string_view sql,
                                    const QueryExecOptions& exec) {
  CheckOwningThread();
  SCIBORQ_ASSIGN_OR_RETURN(BoundedQuery bounded,
                           ParseBoundedQuery(std::string(sql)));
  if (bounded.query.table.empty()) {
    if (table_.empty()) {
      return Status::InvalidArgument(
          "SQL has no FROM clause and the session has no default table: "
          "call Use() first");
    }
    bounded.query.table = table_;
  }
  if (!bounded.bounds.any()) bounded.bounds = bounds_;
  SCIBORQ_ASSIGN_OR_RETURN(QueryOutcome outcome,
                           backend_->Query(bounded, exec));
  ++queries_run_;
  total_seconds_ += outcome.elapsed_seconds;
  return outcome;
}

bool Session::OwnsStatement(StatementHandle handle) const {
  return std::any_of(
      statements_.begin(), statements_.end(),
      [handle](StatementHandle h) { return h.id == handle.id; });
}

Result<StatementInfo> Session::Prepare(std::string_view sql) {
  CheckOwningThread();
  SCIBORQ_ASSIGN_OR_RETURN(PreparedQuery prepared,
                           ParsePreparedQuery(std::string(sql)));
  if (prepared.query.table.empty()) {
    if (table_.empty()) {
      return Status::InvalidArgument(
          "SQL has no FROM clause and the session has no default table: "
          "call Use() first");
    }
    prepared.query.table = table_;
  }
  // A template "carries bounds" when any term is literal OR taken by a `?`;
  // only a fully bare template inherits the session defaults (captured now,
  // like Query does per statement).
  const bool has_bounds = prepared.bounds.any() ||
                          prepared.time_budget_slot >= 0 ||
                          prepared.error_slot >= 0;
  if (!has_bounds) prepared.bounds = bounds_;
  SCIBORQ_ASSIGN_OR_RETURN(const StatementHandle handle,
                           backend_->Prepare(std::move(prepared)));
  statements_.push_back(handle);
  return backend_->GetStatement(handle);
}

Result<QueryOutcome> Session::Execute(StatementHandle handle,
                                      const std::vector<Value>& params) {
  CheckOwningThread();
  if (!OwnsStatement(handle)) {
    return Status::NotFound(StrFormat(
        "statement handle %lld was not prepared on this session",
        static_cast<long long>(handle.id)));
  }
  SCIBORQ_ASSIGN_OR_RETURN(QueryOutcome outcome,
                           backend_->Execute(handle, params));
  ++queries_run_;
  total_seconds_ += outcome.elapsed_seconds;
  return outcome;
}

Status Session::CloseStatement(StatementHandle handle) {
  CheckOwningThread();
  if (!OwnsStatement(handle)) {
    return Status::NotFound(StrFormat(
        "statement handle %lld was not prepared on this session",
        static_cast<long long>(handle.id)));
  }
  statements_.erase(
      std::remove_if(statements_.begin(), statements_.end(),
                     [handle](StatementHandle h) { return h.id == handle.id; }),
      statements_.end());
  return backend_->CloseStatement(handle);
}

}  // namespace sciborq
