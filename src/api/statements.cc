#include "api/statements.h"

#include <utility>

#include "util/string_util.h"

namespace sciborq {

StatementHandle StatementRegistry::Add(PreparedQuery prepared) {
  auto statement = std::make_shared<Statement>();
  statement->sql = prepared.ToString();
  statement->prepared = std::move(prepared);
  MutexLock lock(&mu_);
  statement->handle.id = next_id_++;
  statements_.emplace(statement->handle.id, statement);
  return statement->handle;
}

Result<std::shared_ptr<const StatementRegistry::Statement>>
StatementRegistry::Find(StatementHandle handle) const {
  MutexLock lock(&mu_);
  const auto it = statements_.find(handle.id);
  if (it == statements_.end()) {
    return Status::NotFound(StrFormat(
        "unknown statement handle %lld (never prepared, or already closed)",
        static_cast<long long>(handle.id)));
  }
  return it->second;
}

Result<BoundedQuery> StatementRegistry::Bind(
    StatementHandle handle, const std::vector<Value>& params) const {
  SCIBORQ_ASSIGN_OR_RETURN(const std::shared_ptr<const Statement> statement,
                           Find(handle));
  return BindParams(statement->prepared, params);
}

Status StatementRegistry::Close(StatementHandle handle) {
  MutexLock lock(&mu_);
  if (statements_.erase(handle.id) == 0) {
    return Status::NotFound(StrFormat(
        "unknown statement handle %lld (never prepared, or already closed)",
        static_cast<long long>(handle.id)));
  }
  return Status::OK();
}

Result<StatementInfo> StatementRegistry::Info(StatementHandle handle) const {
  SCIBORQ_ASSIGN_OR_RETURN(const std::shared_ptr<const Statement> statement,
                           Find(handle));
  StatementInfo info;
  info.handle = statement->handle;
  info.table = statement->prepared.query.table;
  info.sql = statement->sql;
  info.num_params = statement->prepared.num_params();
  return info;
}

int64_t StatementRegistry::size() const {
  MutexLock lock(&mu_);
  return static_cast<int64_t>(statements_.size());
}

}  // namespace sciborq
