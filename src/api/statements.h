#ifndef SCIBORQ_API_STATEMENTS_H_
#define SCIBORQ_API_STATEMENTS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/backend.h"
#include "exec/query.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace sciborq {

/// The prepared-statement registry a Backend owns: parsed `?` templates
/// keyed by backend-wide handle ids. Validation (does the table exist?) is
/// the owner's job before Add; binding happens outside the lock, since
/// templates are immutable once registered. Thread-safe.
class StatementRegistry {
 public:
  /// Registers `prepared` under a fresh handle.
  StatementHandle Add(PreparedQuery prepared) EXCLUDES(mu_);

  /// Substitutes `params` into the template. NotFound for unknown or closed
  /// handles; InvalidArgument on arity or type mismatch.
  Result<BoundedQuery> Bind(StatementHandle handle,
                            const std::vector<Value>& params) const
      EXCLUDES(mu_);

  /// Frees the template. NotFound when unknown or already closed.
  Status Close(StatementHandle handle) EXCLUDES(mu_);

  /// Template SQL, target table and parameter count of a live handle.
  Result<StatementInfo> Info(StatementHandle handle) const EXCLUDES(mu_);

  /// Statements currently registered.
  int64_t size() const EXCLUDES(mu_);

 private:
  struct Statement {
    StatementHandle handle;
    PreparedQuery prepared;
    std::string sql;  ///< normalized template (prepared.ToString())
  };

  /// The shared_ptr keeps the statement alive across a concurrent Close.
  Result<std::shared_ptr<const Statement>> Find(StatementHandle handle) const
      EXCLUDES(mu_);

  mutable Mutex mu_;
  int64_t next_id_ GUARDED_BY(mu_) = 1;
  std::unordered_map<int64_t, std::shared_ptr<const Statement>> statements_
      GUARDED_BY(mu_);
};

}  // namespace sciborq

#endif  // SCIBORQ_API_STATEMENTS_H_
