#ifndef SCIBORQ_API_SESSION_H_
#define SCIBORQ_API_SESSION_H_

#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "api/backend.h"
#include "util/check.h"
#include "util/result.h"

namespace sciborq {

/// A lightweight per-client handle over a Backend (an Engine or a
/// coordinator): carries the client's default table (Use) and default
/// bounds, so interactive SQL can stay bare — "SELECT COUNT(*) WHERE ..."
/// instead of repeating the FROM clause and the contract on every statement
/// — scopes prepared-statement handles to this client, and keeps
/// per-session statistics.
///
/// Sessions are intentionally NOT thread-safe: a session is owned by the
/// thread that constructed it, and debug builds abort (SCIBORQ_DCHECK) if
/// any other thread calls a mutating method. Create one session per client
/// thread — the Backend underneath is thread-safe, and any number of
/// sessions can run concurrently against it. The network server satisfies
/// this by construction: each connection's session lives entirely on that
/// connection's handler thread.
class Session {
 public:
  /// `backend` is non-owning and must outlive the session. The constructing
  /// thread becomes the owner.
  explicit Session(Backend* backend);

  /// Closes every statement still prepared on this session, so a departing
  /// client (e.g. a dropped server connection) never leaks registry entries.
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Sets the default table substituted into FROM-less SQL. NotFound when
  /// no such table is registered.
  Status Use(const std::string& table);
  const std::string& current_table() const { return table_; }

  /// Bounds applied when the SQL carries no bounds clause at all (individual
  /// unspecified terms still fall back to the engine default).
  void set_default_bounds(const QueryBounds& bounds) {
    CheckOwningThread();
    bounds_ = bounds;
  }
  const QueryBounds& default_bounds() const { return bounds_; }

  /// Parses and answers `sql`, filling in the session's table and bounds
  /// where the text leaves them out.
  Result<QueryOutcome> Query(std::string_view sql);

  /// Same, with per-call execution options (the server's v3 kQuery path
  /// passes the peer's mergeable flag through here).
  Result<QueryOutcome> Query(std::string_view sql,
                             const QueryExecOptions& exec);

  // -- Prepared statements ---------------------------------------------------

  /// Parses a `?` template and registers it with the backend, filling in the
  /// session's default table (when the SQL has no FROM clause) and default
  /// bounds (when it carries no bounds clause, literal or placeholder) at
  /// prepare time. The handle is scoped to this session: only this session
  /// can Execute or close it, and any still open are closed on destruction.
  Result<StatementInfo> Prepare(std::string_view sql);

  /// Binds and runs one of this session's statements. NotFound when the
  /// handle was not prepared here (other sessions' handles are invisible —
  /// the per-connection isolation the server relies on).
  Result<QueryOutcome> Execute(StatementHandle handle,
                               const std::vector<Value>& params);

  /// Closes one of this session's statements.
  Status CloseStatement(StatementHandle handle);

  /// Statements this session currently holds open.
  int64_t open_statements() const {
    return static_cast<int64_t>(statements_.size());
  }

  int64_t queries_run() const { return queries_run_; }
  double total_seconds() const { return total_seconds_; }

 private:
  /// Debug-mode enforcement of the single-thread ownership contract; free
  /// in release builds.
  void CheckOwningThread() const {
#ifndef NDEBUG
    SCIBORQ_DCHECK(std::this_thread::get_id() == owner_thread_ &&
                   "Session used from a thread other than its owner; "
                   "create one Session per client thread");
#endif
  }

  /// True when `handle` was prepared on this session.
  bool OwnsStatement(StatementHandle handle) const;

  Backend* backend_;
  std::string table_;
  QueryBounds bounds_;
  std::vector<StatementHandle> statements_;  ///< handles prepared here
  int64_t queries_run_ = 0;
  double total_seconds_ = 0.0;
#ifndef NDEBUG
  std::thread::id owner_thread_;
#endif
};

}  // namespace sciborq

#endif  // SCIBORQ_API_SESSION_H_
