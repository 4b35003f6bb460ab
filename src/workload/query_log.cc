#include "workload/query_log.h"

#include <utility>

namespace sciborq {

void QueryLog::Record(const AggregateQuery& query) {
  for (PredicatePoint& point : query.PredicatePoints()) {
    points_.push_back(std::move(point));
  }
}

std::vector<double> QueryLog::PredicateSet(const std::string& column) const {
  std::vector<double> out;
  for (const PredicatePoint& point : points_) {
    if (point.column == column) out.push_back(point.value);
  }
  return out;
}

}  // namespace sciborq
