#ifndef SCIBORQ_EXEC_EXPR_H_
#define SCIBORQ_EXEC_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "column/table.h"
#include "column/types.h"
#include "column/value.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace sciborq {

/// One scalar value requested by a query predicate on one attribute — the
/// atoms of the paper's *predicate set* (§4). The workload tracker folds
/// these into per-attribute histograms that steer the sampling bias.
struct PredicatePoint {
  std::string column;
  double value;
};

/// What a predicate can conclude about one contiguous row range from its
/// zone maps alone (column/encoding/encoding.h), without touching data.
enum class MorselVerdict {
  kScanRows,  ///< undecided — evaluate the rows
  kSkipAll,   ///< no row in the range can match
  kMatchAll,  ///< every row in the range matches (nulls included)
};

/// A boolean filter over table rows. Implementations are vectorized: Select()
/// intersects a candidate list in one pass, MonetDB-style. Predicates are
/// immutable after construction and shared between base tables and
/// impressions (identical schemas).
class Predicate {
 public:
  virtual ~Predicate() = default;

  /// Narrows `candidates` to the rows satisfying the predicate, appending to
  /// `out` (which is cleared first). Error when a referenced column is
  /// missing or mistyped.
  virtual Status Select(const Table& table, const SelectionVector& candidates,
                        SelectionVector* out) const = 0;

  /// Row-at-a-time evaluation for streaming paths. Precondition: the schema
  /// was validated by a prior Select or Validate call.
  virtual bool Matches(const Table& table, int64_t row) const = 0;

  /// Zone-map verdict for rows [begin, end). Sound but not complete: a
  /// kSkipAll/kMatchAll answer is a guarantee, kScanRows just means the zone
  /// maps could not decide (no sidecar, unaligned range, or genuinely mixed
  /// rows). The default — and any predicate without pruning support —
  /// returns kScanRows, which is always correct.
  virtual MorselVerdict TestMorsel(const Table& table, int64_t begin,
                                   int64_t end) const {
    (void)table, (void)begin, (void)end;
    return MorselVerdict::kScanRows;
  }

  /// Selects the matching rows of the contiguous range [begin, end) into
  /// `out` (cleared first, emitted ascending) — the morsel scan path.
  /// Equivalent to Select() over the dense candidate list, but overrides
  /// run vectorized kernels (exec/kernels.h) or compressed-domain scans
  /// instead of materializing candidates. Precondition: the schema was
  /// validated (SelectAll validates once before fanning out).
  virtual Status SelectRange(const Table& table, int64_t begin, int64_t end,
                             SelectionVector* out) const;

  /// Checks column references/types against a schema without running.
  virtual Status Validate(const Schema& schema) const = 0;

  /// Contributes this predicate's requested values (see PredicatePoint).
  virtual void CollectPredicatePoints(
      std::vector<PredicatePoint>* points) const = 0;

  /// SQL-ish rendering for logs and debugging.
  virtual std::string ToString() const = 0;

  /// Deep copy.
  virtual std::unique_ptr<Predicate> Clone() const = 0;

  /// Deep copy with every `?` parameter placeholder replaced by its bound
  /// value (`params` is indexed by slot). Placeholder-free predicates just
  /// Clone; combinators rebind their children. InvalidArgument when a
  /// parameter is unbindable (out-of-range slot, NULL value).
  virtual Result<std::unique_ptr<Predicate>> BindParams(
      const std::vector<Value>& params) const;

  /// True when the tree still contains unbound `?` placeholders — such a
  /// tree renders and clones but refuses to execute.
  virtual bool HasUnboundParams() const { return false; }
};

using PredicatePtr = std::unique_ptr<Predicate>;

/// Runs a predicate against all rows of a table. With a pool, the scan is
/// morsel-parallel: contiguous morsels filter on the pool's workers and the
/// per-morsel selections concatenate in morsel order, so the result is
/// identical to the serial scan. Each morsel first consults the predicate's
/// zone-map verdict (TestMorsel): skipped morsels never touch data (counted
/// in sciborq_morsels_skipped_total), blanket-matching morsels emit their
/// dense row range, and only undecided morsels run SelectRange. With
/// `scanned_rows`, it receives the rows of the morsels not skipped.
Result<SelectionVector> SelectAll(const Table& table, const Predicate& pred,
                                  ThreadPool* pool = nullptr,
                                  int64_t* scanned_rows = nullptr);

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };
std::string_view CompareOpToString(CompareOp op);

// ---------------------------------------------------------------------------
// Factory functions — the public way to build predicate trees:
//   auto p = And(Ge("ra", 180.0), Le("ra", 190.0), Eq("class", "GALAXY"));
// ---------------------------------------------------------------------------

PredicatePtr Compare(std::string column, CompareOp op, Value literal);
PredicatePtr Eq(std::string column, Value literal);
PredicatePtr Ne(std::string column, Value literal);
PredicatePtr Lt(std::string column, Value literal);
PredicatePtr Le(std::string column, Value literal);
PredicatePtr Gt(std::string column, Value literal);
PredicatePtr Ge(std::string column, Value literal);

/// lo <= column <= hi (numeric).
PredicatePtr Between(std::string column, double lo, double hi);

/// Euclidean cone in two attributes (the SkyServer fGetNearbyObjEq shape):
/// (c1 - x0)^2 + (c2 - y0)^2 <= radius^2. The paper's focal-point queries.
PredicatePtr Cone(std::string column_x, std::string column_y, double x0,
                  double y0, double radius);

PredicatePtr Not(PredicatePtr child);
PredicatePtr And(std::vector<PredicatePtr> children);
PredicatePtr Or(std::vector<PredicatePtr> children);

/// A `?` parameter placeholder in comparison position: `column <op> ?`,
/// the building block of prepared statements (exec/parser.h's
/// ParsePreparedQuery). Renders as "column <op> ?"; Select/Validate fail
/// with FailedPrecondition until BindParams substitutes params[slot],
/// producing a plain comparison.
PredicatePtr Param(std::string column, CompareOp op, size_t slot);

/// Variadic conveniences.
template <typename... Ps>
PredicatePtr And(Ps... preds) {
  std::vector<PredicatePtr> children;
  (children.push_back(std::move(preds)), ...);
  return And(std::move(children));
}
template <typename... Ps>
PredicatePtr Or(Ps... preds) {
  std::vector<PredicatePtr> children;
  (children.push_back(std::move(preds)), ...);
  return Or(std::move(children));
}

}  // namespace sciborq

#endif  // SCIBORQ_EXEC_EXPR_H_
