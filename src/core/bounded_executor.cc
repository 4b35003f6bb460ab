#include "core/bounded_executor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "exec/aggregate.h"
#include "util/check.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace sciborq {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// An estimate that claims no interval: a bounded query escalates past it.
AggregateEstimate Unbounded(double estimate, double ci_lo, double confidence,
                            int64_t sample_rows) {
  AggregateEstimate est;
  est.estimate = estimate;
  est.std_error = kInf;
  est.ci_lo = ci_lo;
  est.ci_hi = kInf;
  est.confidence = confidence;
  est.sample_rows = sample_rows;
  return est;
}

/// Finishes one (group, aggregate) cell of the fold into an estimate.
Result<AggregateEstimate> EstimateAggregate(const AggregateSpec& spec,
                                            const GroupRow& group, size_t s,
                                            double confidence) {
  // No sampled row gave the cell a value (none matched, or every matching
  // measure is NULL). The estimate is 0, but a small sample easily misses a
  // rare subpopulation entirely, so the interval is unbounded and an
  // error-bounded query escalates to a larger layer.
  const auto no_values = [&] {
    return Unbounded(0.0, spec.kind == AggKind::kCount ? 0.0 : -kInf,
                     confidence, 0);
  };
  const HtMoments& ht = group.ht[s];
  switch (spec.kind) {
    case AggKind::kCount:
    case AggKind::kSum:
    case AggKind::kAvg: {
      if (ht.count() == 0) return no_values();
      if (spec.kind != AggKind::kAvg) return ht.Total(confidence);
      SCIBORQ_ASSIGN_OR_RETURN(const AggregateEstimate mean,
                               ht.Mean(confidence));
      // One value says nothing about the spread (its residual is 0 by
      // construction), so it claims no interval either.
      if (ht.count() > 1) return mean;
      return Unbounded(mean.estimate, -kInf, confidence, 1);
    }
    case AggKind::kMin:
    case AggKind::kMax: {
      // Sample extremes carry no distribution-free error bound: an unseen
      // tuple can be arbitrarily more extreme.
      const RunningExtremes& extremes = group.extremes[s];
      if (extremes.count == 0) return no_values();
      return Unbounded(
          spec.kind == AggKind::kMin ? extremes.min : extremes.max, -kInf,
          confidence, extremes.count);
    }
    case AggKind::kVariance: {
      const AggregateMoments& moments = group.moments[s];
      const int64_t m = moments.moments.count();
      if (m == 0) return no_values();
      SCIBORQ_ASSIGN_OR_RETURN(const double var, moments.Finish(spec.kind));
      if (!group.equal_probabilities) {
        // Unequal inclusion probabilities (a biased layer): the unweighted
        // sample variance is not a design-consistent estimate, so no error
        // bound is claimed, like MIN/MAX, and a bounded query escalates.
        return Unbounded(var, -kInf, confidence, m);
      }
      // Normal-theory standard error of s^2: s^2 * sqrt(2/(m-1)).
      const double se = var * std::sqrt(2.0 / static_cast<double>(m - 1));
      return NormalEstimate(var, se, confidence, m);
    }
    case AggKind::kLast:
      return Status::InvalidArgument(
          "LAST is answered by the latest-value path, not the bounded "
          "executor");
  }
  return Status::Internal("unreachable aggregate kind");
}

/// The rows a scan matched: input rows summed over the result rows.
int64_t MatchingRows(const std::vector<QueryResultRow>& rows) {
  int64_t matched = 0;
  for (const QueryResultRow& row : rows) matched += row.input_rows;
  return matched;
}

double WorstRelativeError(const BoundedAnswer& answer) {
  double worst = 0.0;
  for (const auto& row : answer.estimates) {
    for (const auto& est : row) {
      worst = std::max(worst, est.RelativeError());
    }
  }
  return worst;
}

}  // namespace

Result<BoundedAnswer> EstimateOnImpression(const Impression& impression,
                                           const AggregateQuery& query,
                                           double confidence,
                                           ThreadPool* pool,
                                           int64_t* scanned_rows) {
  if (query.aggregates.empty()) {
    return Status::InvalidArgument("query has no aggregates");
  }
  if (impression.size() == 0) {
    return Status::FailedPrecondition("impression is empty");
  }
  const Table& sample = impression.rows();
  SCIBORQ_ASSIGN_OR_RETURN(const SelectionVector matching,
                           SelectMatching(sample, query, pool, scanned_rows));
  // Groups entirely unseen by the sample are (necessarily) absent — a
  // fundamental limitation of sampling shared by all AQP systems.
  const InclusionProbabilities probs = impression.inclusion_probabilities();
  SCIBORQ_ASSIGN_OR_RETURN(
      std::vector<GroupRow> groups,
      ComputeGroupedAggregates(sample, matching, query.group_by,
                               query.aggregates, pool, &probs));

  BoundedAnswer answer;
  answer.answered_by = impression.name();
  answer.rows.reserve(groups.size());
  answer.estimates.reserve(groups.size());
  for (GroupRow& group : groups) {
    QueryResultRow row;
    row.input_rows = group.group_rows;
    row.population = group.population;
    std::vector<AggregateEstimate> ests;
    ests.reserve(query.aggregates.size());
    for (size_t s = 0; s < query.aggregates.size(); ++s) {
      SCIBORQ_ASSIGN_OR_RETURN(
          AggregateEstimate est,
          EstimateAggregate(query.aggregates[s], group, s, confidence));
      row.values.push_back(est.estimate);
      ests.push_back(est);
    }
    row.group_key = std::move(group.key);
    answer.rows.push_back(std::move(row));
    answer.estimates.push_back(std::move(ests));
  }
  return answer;
}

std::string BoundedAnswer::ToString() const {
  std::string out = StrFormat(
      "BoundedAnswer(by=%s, error_bound_met=%s, deadline_exceeded=%s, "
      "%.3fms, %zu row(s))",
      answered_by.c_str(), error_bound_met ? "yes" : "no",
      deadline_exceeded ? "yes" : "no", elapsed_seconds * 1e3, rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    if (!rows[r].group_key.is_null()) {
      out += "\n  group " + rows[r].group_key.ToString() + ":";
    }
    for (const auto& est : estimates[r]) {
      out += "\n    " + est.ToString();
    }
  }
  return out;
}

BoundedAnswer ScanAnswer(std::vector<QueryResultRow> rows,
                         const std::string& layer_name, int64_t scanned_rows,
                         double confidence, double elapsed_seconds,
                         bool exact) {
  BoundedAnswer answer;
  answer.estimates.reserve(rows.size());
  for (const QueryResultRow& row : rows) {
    std::vector<AggregateEstimate> ests;
    ests.reserve(row.values.size());
    for (const double v : row.values) {
      AggregateEstimate est;
      est.estimate = v;
      est.ci_lo = v;
      est.ci_hi = v;
      est.confidence = confidence;
      est.sample_rows = row.input_rows;
      est.exact = exact;
      ests.push_back(est);
    }
    answer.estimates.push_back(std::move(ests));
  }
  LayerAttempt trace;
  trace.layer_name = layer_name;
  trace.layer_rows = scanned_rows;
  trace.matching_rows = MatchingRows(rows);
  trace.elapsed_seconds = elapsed_seconds;
  trace.met_error_bound = true;
  trace.is_base = exact;
  answer.rows = std::move(rows);
  answer.answered_by = layer_name;
  answer.error_bound_met = true;
  answer.elapsed_seconds = elapsed_seconds;
  answer.attempts.push_back(std::move(trace));
  return answer;
}

BoundedExecutor::BoundedExecutor(const Table* base,
                                 const ImpressionHierarchy* hierarchy,
                                 ThreadPool* pool)
    : base_(base), hierarchy_(hierarchy), pool_(pool) {
  SCIBORQ_CHECK(base_ != nullptr);
  SCIBORQ_CHECK(hierarchy_ != nullptr);
}

Result<BoundedAnswer> BoundedExecutor::Answer(const AggregateQuery& query,
                                              const QualityBound& bound) {
  Stopwatch total;
  const Deadline deadline =
      bound.time_budget_seconds > 0.0
          ? Deadline::AfterSeconds(bound.time_budget_seconds)
          : Deadline::Unlimited();

  BoundedAnswer best;
  bool have_answer = false;
  std::vector<LayerAttempt> attempts;

  std::vector<const Impression*> order = hierarchy_->EscalationOrder();
  for (const Impression* layer : order) {
    if (layer->size() == 0) continue;
    // Predictive admission: skip escalation when the next layer clearly
    // cannot finish inside the remaining budget (keep the answer we have).
    if (deadline.limited() && have_answer && est_seconds_per_row_ > 0.0) {
      const double predicted =
          est_seconds_per_row_ * static_cast<double>(layer->size());
      if (predicted > deadline.RemainingSeconds()) {
        best.deadline_exceeded = true;
        break;
      }
    }
    // Always attempt at least the smallest layer, even on a blown budget:
    // the contract is "the most representative result obtainable within the
    // time frame" (§1), and the smallest impression is that result.
    if (deadline.Expired() && have_answer) {
      best.deadline_exceeded = true;
      break;
    }
    Stopwatch layer_watch;
    int64_t scanned = 0;
    Result<BoundedAnswer> attempt = EstimateOnImpression(
        *layer, query, bound.confidence, pool_, &scanned);
    const double elapsed = layer_watch.ElapsedSeconds();
    if (scanned > 0) {
      // Per row scanned, not per row held: predictions multiply the rate by
      // whole tables (a layer, the base) whose zones may not prune.
      const double per_row = elapsed / static_cast<double>(scanned);
      est_seconds_per_row_ = est_seconds_per_row_ > 0.0
                                 ? 0.5 * (est_seconds_per_row_ + per_row)
                                 : per_row;
    }
    LayerAttempt trace;
    trace.layer_name = layer->name();
    trace.layer_rows = layer->size();
    trace.elapsed_seconds = elapsed;
    if (!attempt.ok()) {
      // A layer can legitimately fail (e.g. zero matching rows on a tiny
      // impression) — escalate.
      trace.worst_relative_error = kInf;
      attempts.push_back(std::move(trace));
      continue;
    }
    const double worst = WorstRelativeError(attempt.value());
    trace.matching_rows = MatchingRows(attempt.value().rows);
    trace.worst_relative_error = worst;
    trace.met_error_bound =
        bound.max_relative_error > 0.0 && worst <= bound.max_relative_error;
    attempts.push_back(trace);

    best = std::move(attempt).value();
    have_answer = true;
    if (trace.met_error_bound) {
      best.error_bound_met = true;
      best.attempts = std::move(attempts);
      best.elapsed_seconds = total.ElapsedSeconds();
      return best;
    }
  }

  // Final escalation: the base columns, "for a zero error margin" (§3.2) —
  // unless the clock ran out, or the predicted full-scan cost
  // cannot fit the remaining budget. Predictive admission applies to the
  // base table exactly as to impression layers: a 10 ms budget must never
  // launch an unbounded base scan just because the deadline has not expired
  // *yet*. With no layer answer at all, the scan proceeds regardless —
  // "always return the best answer obtained so far" requires obtaining one.
  bool base_admitted = !best.deadline_exceeded && !deadline.Expired();
  if (base_admitted && deadline.limited() && have_answer &&
      est_seconds_per_row_ > 0.0) {
    const double predicted =
        est_seconds_per_row_ * static_cast<double>(base_->num_rows());
    if (predicted > deadline.RemainingSeconds()) {
      base_admitted = false;
      best.deadline_exceeded = true;
    }
  }
  if (base_admitted) {
    Stopwatch base_watch;
    SCIBORQ_ASSIGN_OR_RETURN(std::vector<QueryResultRow> exact_rows,
                             RunExact(*base_, query, pool_));
    BoundedAnswer exact =
        ScanAnswer(std::move(exact_rows), "base", base_->num_rows(),
                   bound.confidence, base_watch.ElapsedSeconds(),
                   /*exact=*/true);
    attempts.push_back(std::move(exact.attempts.back()));
    exact.attempts = std::move(attempts);
    exact.elapsed_seconds = total.ElapsedSeconds();
    exact.deadline_exceeded = deadline.Expired();
    return exact;
  }

  if (!have_answer) {
    return Status::QualityBoundExceeded(
        "no layer produced an answer within the budget");
  }
  best.error_bound_met = false;
  best.deadline_exceeded = best.deadline_exceeded || deadline.Expired();
  best.attempts = std::move(attempts);
  best.elapsed_seconds = total.ElapsedSeconds();
  return best;
}

}  // namespace sciborq
