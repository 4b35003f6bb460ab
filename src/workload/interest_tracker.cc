#include "workload/interest_tracker.h"

#include <algorithm>
#include <cmath>

#include "stats/kde.h"
#include "util/string_util.h"

namespace sciborq {

Result<InterestTracker> InterestTracker::FromAttributes(
    std::vector<TrackedAttribute> attrs) {
  if (attrs.empty()) {
    return Status::InvalidArgument("tracker needs at least one attribute");
  }
  InterestTracker tracker(std::move(attrs));
  for (size_t i = 0; i < tracker.attrs_.size(); ++i) {
    const auto [it, inserted] =
        tracker.index_.emplace(tracker.attrs_[i].column, static_cast<int>(i));
    (void)it;
    if (!inserted) {
      return Status::InvalidArgument(
          StrFormat("duplicate tracked attribute '%s'",
                    tracker.attrs_[i].column.c_str()));
    }
  }
  return tracker;
}

Result<InterestTracker> InterestTracker::Make(
    std::vector<AttributeSpec> attributes) {
  if (attributes.size() > static_cast<size_t>(kMaxAttributes)) {
    return Status::InvalidArgument(
        StrFormat("%zu tracked attributes; at most %d are allowed",
                  attributes.size(), kMaxAttributes));
  }
  std::vector<TrackedAttribute> attrs;
  attrs.reserve(attributes.size());
  for (const auto& spec : attributes) {
    SCIBORQ_ASSIGN_OR_RETURN(
        StreamingHistogram hist,
        StreamingHistogram::Make(spec.domain_min, spec.bin_width,
                                 spec.num_bins));
    attrs.push_back(TrackedAttribute{spec.column, std::move(hist)});
  }
  return FromAttributes(std::move(attrs));
}

InterestTrackerState InterestTracker::SaveState() const {
  InterestTrackerState state;
  state.observed_points = observed_points_;
  state.attributes.reserve(attrs_.size());
  for (const auto& attr : attrs_) {
    state.attributes.push_back(
        InterestTrackerState::Attribute{attr.column, attr.hist.SaveState()});
  }
  return state;
}

Result<InterestTracker> InterestTracker::Restore(InterestTrackerState state) {
  if (state.observed_points < 0) {
    return Status::InvalidArgument("tracker state: negative observation count");
  }
  std::vector<TrackedAttribute> attrs;
  attrs.reserve(state.attributes.size());
  for (auto& attr : state.attributes) {
    SCIBORQ_ASSIGN_OR_RETURN(StreamingHistogram hist,
                             StreamingHistogram::Restore(std::move(attr.hist)));
    attrs.push_back(TrackedAttribute{std::move(attr.column), std::move(hist)});
  }
  SCIBORQ_ASSIGN_OR_RETURN(InterestTracker tracker,
                           FromAttributes(std::move(attrs)));
  tracker.observed_points_ = state.observed_points;
  return tracker;
}

void InterestTracker::ObserveQuery(const AggregateQuery& query) {
  for (const auto& point : query.PredicatePoints()) {
    ObserveValue(point.column, point.value);
  }
}

void InterestTracker::ObserveValue(const std::string& column, double value) {
  const auto it = index_.find(column);
  if (it == index_.end()) return;
  attrs_[static_cast<size_t>(it->second)].hist.Observe(value);
  ++observed_points_;
}

std::vector<int> InterestTracker::BindColumns(const Schema& schema) const {
  std::vector<int> bound;
  bound.reserve(attrs_.size());
  for (const auto& attr : attrs_) {
    const auto idx = schema.FieldIndex(attr.column);
    bound.push_back(idx.ok() ? idx.value() : -1);
  }
  return bound;
}

double InterestTracker::TupleWeight(const Table& table,
                                    const std::vector<int>& bound_columns,
                                    int64_t row) const {
  if (observed_points_ == 0) return 1.0;
  double combined = 1.0;
  int used = 0;
  for (size_t a = 0; a < attrs_.size(); ++a) {
    const int col_idx = bound_columns[a];
    if (col_idx < 0) continue;
    const Column& col = table.column(col_idx);
    if (col.IsNull(row)) continue;
    const StreamingHistogram& hist = attrs_[a].hist;
    if (hist.weighted_total() <= 0.0) continue;
    const BinnedKde kde(&hist);
    // w_a = f̆_a(v) * N_a  (§4: probability proportional to f̆(t_new) × N).
    combined *= kde.Evaluate(col.NumericAt(row)) * hist.weighted_total();
    ++used;
  }
  if (used == 0) return 1.0;
  return std::pow(std::max(combined, 0.0), 1.0 / used);
}

void InterestTracker::Decay(double factor) {
  for (auto& attr : attrs_) attr.hist.Decay(factor);
}

}  // namespace sciborq
