#include "core/bounded_executor.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <unordered_map>
#include <utility>

#include "exec/aggregate.h"
#include "exec/expr.h"
#include "util/check.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace sciborq {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Estimates one aggregate from the matching sampled rows and their
/// inclusion probabilities. COUNT and AVG also store the Σ 1/π they summed
/// in `*ht_count`.
Result<AggregateEstimate> EstimateOneAggregate(
    const Table& sample, const SelectionVector& matching,
    const std::vector<double>& probs, const AggregateSpec& spec,
    double confidence, double* ht_count) {
  if (matching.empty()) {
    // No sampled row matched. The point estimate is 0 but the sample carries
    // no information about how large the true answer could be (a small
    // sample easily misses a rare subpopulation entirely), so the interval
    // is unbounded and an error-bounded query escalates to a larger layer.
    AggregateEstimate est;
    est.estimate = 0.0;
    est.std_error = kInf;
    est.ci_lo = spec.kind == AggKind::kCount ? 0.0 : -kInf;
    est.ci_hi = kInf;
    est.confidence = confidence;
    est.sample_rows = 0;
    return est;
  }
  switch (spec.kind) {
    case AggKind::kCount: {
      SCIBORQ_ASSIGN_OR_RETURN(AggregateEstimate est,
                               EstimateCountHorvitzThompson(probs, confidence));
      *ht_count = est.estimate;
      return est;
    }
    case AggKind::kSum: {
      SCIBORQ_ASSIGN_OR_RETURN(std::vector<double> values,
                               GatherNumeric(sample, matching, spec.column));
      if (values.size() != probs.size()) {
        return Status::InvalidArgument(
            "SUM estimation does not support NULLs in the measure column");
      }
      return EstimateSumHorvitzThompson(values, probs, confidence);
    }
    case AggKind::kAvg: {
      SCIBORQ_ASSIGN_OR_RETURN(std::vector<double> values,
                               GatherNumeric(sample, matching, spec.column));
      if (values.empty()) {
        return Status::InvalidArgument("AVG over zero matching sample rows");
      }
      if (values.size() != probs.size()) {
        return Status::InvalidArgument(
            "AVG estimation does not support NULLs in the measure column");
      }
      return EstimateMeanHorvitzThompson(values, probs, confidence, ht_count);
    }
    case AggKind::kMin:
    case AggKind::kMax: {
      SCIBORQ_ASSIGN_OR_RETURN(std::vector<double> values,
                               GatherNumeric(sample, matching, spec.column));
      if (values.empty()) {
        return Status::InvalidArgument("MIN/MAX over zero matching rows");
      }
      AggregateEstimate est;
      est.estimate = spec.kind == AggKind::kMin
                         ? *std::min_element(values.begin(), values.end())
                         : *std::max_element(values.begin(), values.end());
      // Sample extremes carry no distribution-free error bound: an unseen
      // tuple can be arbitrarily more extreme. Report an unbounded CI so
      // error-bounded queries escalate to the base data.
      est.std_error = kInf;
      est.ci_lo = -kInf;
      est.ci_hi = kInf;
      est.confidence = confidence;
      est.sample_rows = static_cast<int64_t>(values.size());
      return est;
    }
    case AggKind::kVariance: {
      SCIBORQ_ASSIGN_OR_RETURN(std::vector<double> values,
                               GatherNumeric(sample, matching, spec.column));
      if (values.size() < 2) {
        return Status::InvalidArgument("VAR needs two matching sample rows");
      }
      double mean = 0.0;
      for (const double v : values) mean += v;
      mean /= static_cast<double>(values.size());
      double ss = 0.0;
      for (const double v : values) ss += (v - mean) * (v - mean);
      const double var = ss / static_cast<double>(values.size() - 1);
      AggregateEstimate est;
      est.estimate = var;
      est.confidence = confidence;
      est.sample_rows = static_cast<int64_t>(values.size());
      if (std::adjacent_find(probs.begin(), probs.end(),
                             std::not_equal_to<>()) != probs.end()) {
        // Unequal inclusion probabilities (a biased layer): the unweighted
        // sample variance is not a design-consistent estimate, so no error
        // bound is claimed, like MIN/MAX, and a bounded query escalates.
        est.std_error = kInf;
        est.ci_lo = -kInf;
        est.ci_hi = kInf;
        return est;
      }
      // Normal-theory standard error of s^2: s^2 * sqrt(2/(m-1)).
      est.std_error =
          var * std::sqrt(2.0 / static_cast<double>(values.size() - 1));
      const double z = NormalQuantile(0.5 + confidence / 2.0);
      est.ci_lo = var - z * est.std_error;
      est.ci_hi = var + z * est.std_error;
      return est;
    }
    case AggKind::kLast:
      return Status::InvalidArgument(
          "LAST is answered by the latest-value path, not the bounded "
          "executor");
  }
  return Status::Internal("unreachable aggregate kind");
}

/// Estimates every aggregate over one set of matching rows, appending a
/// result row + estimate row to the answer.
Status EstimateRow(const Table& sample, const SelectionVector& matching,
                   const std::vector<double>& probs,
                   const AggregateQuery& query, double confidence, Value key,
                   BoundedAnswer* answer) {
  QueryResultRow row;
  row.group_key = std::move(key);
  row.input_rows = static_cast<int64_t>(matching.size());
  std::vector<AggregateEstimate> ests;
  ests.reserve(query.aggregates.size());
  // The matching population Σ 1/π: a COUNT or AVG estimator sums it (each
  // bit for bit the same sum); without one it is summed here.
  double ht_count = -1.0;
  for (const auto& spec : query.aggregates) {
    SCIBORQ_ASSIGN_OR_RETURN(AggregateEstimate est,
                             EstimateOneAggregate(sample, matching, probs,
                                                  spec, confidence, &ht_count));
    row.values.push_back(est.estimate);
    ests.push_back(est);
  }
  if (ht_count < 0.0) {
    ht_count = 0.0;
    for (const double p : probs) ht_count += 1.0 / p;
  }
  row.population = ht_count;
  answer->rows.push_back(std::move(row));
  answer->estimates.push_back(std::move(ests));
  return Status::OK();
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
                                           ThreadPool* pool) {
  if (query.aggregates.empty()) {
    return Status::InvalidArgument("query has no aggregates");
  }
  if (impression.size() == 0) {
    return Status::FailedPrecondition("impression is empty");
  }
  const Table& sample = impression.rows();
  SelectionVector matching;
  if (query.filter) {
    SCIBORQ_ASSIGN_OR_RETURN(matching, SelectAll(sample, *query.filter, pool));
  } else {
    matching.resize(static_cast<size_t>(sample.num_rows()));
    for (int64_t i = 0; i < sample.num_rows(); ++i) {
      matching[static_cast<size_t>(i)] = i;
    }
  }

  BoundedAnswer answer;
  answer.answered_by = impression.name();

  if (query.group_by.empty()) {
    std::vector<double> probs;
    probs.reserve(matching.size());
    for (const int64_t row : matching) {
      probs.push_back(impression.InclusionProbability(row));
    }
    SCIBORQ_RETURN_NOT_OK(EstimateRow(sample, matching, probs, query,
                                      confidence, Value::Null(), &answer));
    return answer;
  }

  // Grouped: partition the matching rows by key, estimate per group. Groups
  // entirely unseen by the sample are (necessarily) absent — a fundamental
  // limitation of sampling shared by all AQP systems.
  SCIBORQ_ASSIGN_OR_RETURN(const Column* key_col,
                           sample.ColumnByName(query.group_by));
  if (key_col->type() == DataType::kDouble) {
    return Status::InvalidArgument(
        "grouping on double columns is not supported (bin them first)");
  }
  std::vector<Value> keys;
  std::vector<SelectionVector> partitions;
  std::unordered_map<int64_t, size_t> int_groups;
  std::unordered_map<std::string, size_t> str_groups;
  for (const int64_t row : matching) {
    if (key_col->IsNull(row)) continue;
    size_t idx = 0;
    if (key_col->type() == DataType::kInt64) {
      const auto [it, inserted] =
          int_groups.emplace(key_col->GetInt64(row), partitions.size());
      idx = it->second;
      if (inserted) {
        keys.emplace_back(key_col->GetInt64(row));
        partitions.emplace_back();
      }
    } else {
      const auto [it, inserted] =
          str_groups.emplace(key_col->GetString(row), partitions.size());
      idx = it->second;
      if (inserted) {
        keys.emplace_back(key_col->GetString(row));
        partitions.emplace_back();
      }
    }
    partitions[idx].push_back(row);
  }
  for (size_t g = 0; g < partitions.size(); ++g) {
    std::vector<double> probs;
    probs.reserve(partitions[g].size());
    for (const int64_t row : partitions[g]) {
      probs.push_back(impression.InclusionProbability(row));
    }
    SCIBORQ_RETURN_NOT_OK(EstimateRow(sample, partitions[g], probs, query,
                                      confidence, keys[g], &answer));
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
  trace.matching_rows = rows.empty() ? 0 : rows[0].input_rows;
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
    Result<BoundedAnswer> attempt =
        EstimateOnImpression(*layer, query, bound.confidence, pool_);
    const double elapsed = layer_watch.ElapsedSeconds();
    if (layer->size() > 0) {
      const double per_row = elapsed / static_cast<double>(layer->size());
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
    trace.matching_rows =
        attempt.value().rows.empty() ? 0 : attempt.value().rows[0].input_rows;
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
