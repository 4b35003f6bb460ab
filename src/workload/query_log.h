#ifndef SCIBORQ_WORKLOAD_QUERY_LOG_H_
#define SCIBORQ_WORKLOAD_QUERY_LOG_H_

#include <string>
#include <vector>

#include "exec/query.h"

namespace sciborq {

/// The predicate points of a stream of queries, in arrival order — the raw
/// material of the paper's interest analysis (§4), read by the KDE and
/// bin-width benches. The engine keeps no such log: its InterestTracker folds
/// every query into per-attribute histograms instead (Engine::Query and
/// Engine::RecordWorkload).
class QueryLog {
 public:
  /// Records the query's predicate points (copied: the query may go away).
  void Record(const AggregateQuery& query);

  /// The predicate set of one attribute: every value of `column` requested by
  /// any predicate of any recorded query, in record order. (§4: "the set of
  /// all values of the interesting attributes that are requested".)
  std::vector<double> PredicateSet(const std::string& column) const;

 private:
  std::vector<PredicatePoint> points_;
};

}  // namespace sciborq

#endif  // SCIBORQ_WORKLOAD_QUERY_LOG_H_
