#include "core/impression.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/string_util.h"

namespace sciborq {

std::string_view SamplingPolicyToString(SamplingPolicy policy) {
  switch (policy) {
    case SamplingPolicy::kUniform:
      return "uniform";
    case SamplingPolicy::kLastSeen:
      return "last-seen";
    case SamplingPolicy::kBiased:
      return "biased";
  }
  return "unknown";
}

Impression::Impression(std::string name, int64_t capacity,
                       SamplingPolicy policy, Table rows)
    : name_(std::move(name)),
      capacity_(capacity),
      policy_(policy),
      rows_(std::move(rows)) {}

Impression::Impression(std::string name, Schema schema, int64_t capacity,
                       SamplingPolicy policy)
    : Impression(std::move(name), capacity, policy, Table(std::move(schema))) {}

void Impression::AppendSampledRow(const Table& src, int64_t src_row,
                                  double weight, int64_t source_id) {
  SCIBORQ_DCHECK(size() < capacity_);
  rows_.AppendRowFrom(src, src_row);
  weights_.push_back(weight);
  source_ids_.push_back(source_id);
}

void Impression::ReplaceSampledRow(int64_t slot, const Table& src,
                                   int64_t src_row, double weight,
                                   int64_t source_id) {
  SCIBORQ_DCHECK(slot >= 0 && slot < size());
  rows_.SetRowFrom(src, src_row, slot);
  weights_[static_cast<size_t>(slot)] = weight;
  source_ids_[static_cast<size_t>(slot)] = source_id;
}

void Impression::FinishBatch(int64_t population_seen, double population_weight,
                             std::vector<int64_t> acceptance_curve,
                             int64_t curve_interval, int64_t total_accepted) {
  population_seen_ = population_seen;
  population_weight_ = population_weight;
  acceptance_curve_ = std::move(acceptance_curve);
  curve_interval_ = curve_interval;
  total_accepted_ = total_accepted;
  RefreshInclusionProbabilities();
}

void Impression::RefreshInclusionProbabilities() {
  if (probs_pinned_) return;
  probs_.clear();
  common_prob_ = 1.0;
  const auto n = static_cast<double>(size());
  switch (policy_) {
    case SamplingPolicy::kUniform: {
      if (population_seen_ > size()) {
        common_prob_ = n / static_cast<double>(population_seen_);
      }
      return;
    }
    case SamplingPolicy::kBiased: {
      if (population_seen_ <= size() || population_weight_ <= 0.0) return;
      probs_.resize(static_cast<size_t>(size()));
      for (size_t row = 0; row < probs_.size(); ++row) {
        const double w = weights_[row];
        if (!(w > 0.0)) {
          probs_[row] = 1.0 / static_cast<double>(population_seen_);
        } else if (has_acceptance_model()) {
          // First-order retention model (see FinishBatch): arrival
          // position t (1-based), capacity n_cap.
          const double t = static_cast<double>(source_ids_[row] + 1);
          const auto n_cap = static_cast<double>(capacity_);
          const double accept =
              t <= n_cap ? 1.0 : std::min(1.0, n_cap * w / t);
          const double later = std::max(
              0.0, static_cast<double>(total_accepted_) - AcceptancesAt(t));
          const double survival = std::exp(-later / n_cap);
          probs_[row] = std::clamp(accept * survival, 1e-12, 1.0);
        } else {
          // Fallback without a model: the coarse Σw surrogate.
          probs_[row] = std::min(1.0, n * w / population_weight_);
        }
      }
      return;
    }
    case SamplingPolicy::kLastSeen: {
      // Effective window: the sample refreshes at rate k/D per tuple, with
      // k the capacity, so the resident rows are (approximately) a uniform
      // draw from the most recent W = n·D/k tuples.
      if (expected_ingest_ <= 0) {
        if (population_seen_ > size()) {
          common_prob_ = n / static_cast<double>(population_seen_);
        }
        return;
      }
      const double window =
          n * static_cast<double>(expected_ingest_) /
          static_cast<double>(capacity_);
      const double effective =
          std::min(static_cast<double>(population_seen_), window);
      if (effective > n) common_prob_ = n / effective;
      return;
    }
  }
}

double Impression::AcceptancesAt(double position) const {
  if (acceptance_curve_.empty()) {
    // Single segment: interpolate 0 -> total over (capacity, population].
    const double span =
        static_cast<double>(population_seen_ - capacity_);
    if (span <= 0.0) return 0.0;
    const double frac =
        std::clamp((position - static_cast<double>(capacity_)) / span, 0.0, 1.0);
    return frac * static_cast<double>(total_accepted_);
  }
  const auto interval = static_cast<double>(curve_interval_);
  const double idx = position / interval;  // checkpoints at 1*I, 2*I, ...
  if (idx <= 1.0) {
    return idx * static_cast<double>(acceptance_curve_.front());
  }
  const auto k = static_cast<size_t>(idx - 1.0);  // checkpoint index below
  if (k + 1 >= acceptance_curve_.size()) {
    // Beyond the last checkpoint: interpolate toward the final total.
    const double last_pos =
        static_cast<double>(acceptance_curve_.size()) * interval;
    const double span = static_cast<double>(population_seen_) - last_pos;
    const auto last_val = static_cast<double>(acceptance_curve_.back());
    if (span <= 0.0) return last_val;
    const double frac = std::clamp((position - last_pos) / span, 0.0, 1.0);
    return last_val + frac * (static_cast<double>(total_accepted_) - last_val);
  }
  const auto lo = static_cast<double>(acceptance_curve_[k]);
  const auto hi = static_cast<double>(acceptance_curve_[k + 1]);
  const double frac = idx - 1.0 - static_cast<double>(k);
  return lo + frac * (hi - lo);
}

Impression Impression::Clone(std::string new_name) const {
  Impression copy = *this;
  copy.name_ = std::move(new_name);
  return copy;
}

ImpressionState Impression::SaveState() const {
  ImpressionState state;
  state.name = name_;
  state.capacity = capacity_;
  state.policy = policy_;
  state.rows = rows_;
  state.weights = weights_;
  state.source_ids = source_ids_;
  if (probs_pinned_) state.explicit_probs = probs_;
  state.population_seen = population_seen_;
  state.population_weight = population_weight_;
  state.expected_ingest = expected_ingest_;
  state.acceptance_curve = acceptance_curve_;
  state.curve_interval = curve_interval_;
  state.total_accepted = total_accepted_;
  return state;
}

Result<Impression> Impression::FromState(ImpressionState state) {
  if (state.capacity <= 0) {
    return Status::InvalidArgument("impression state: non-positive capacity");
  }
  Impression out(std::move(state.name), state.capacity, state.policy,
                 std::move(state.rows));
  out.weights_ = std::move(state.weights);
  out.source_ids_ = std::move(state.source_ids);
  out.probs_ = std::move(state.explicit_probs);
  out.probs_pinned_ = !out.probs_.empty();
  out.population_seen_ = state.population_seen;
  out.population_weight_ = state.population_weight;
  out.expected_ingest_ = state.expected_ingest;
  out.acceptance_curve_ = std::move(state.acceptance_curve);
  out.curve_interval_ = state.curve_interval;
  out.total_accepted_ = state.total_accepted;
  if (Status st = out.Validate(); !st.ok()) {
    // Validate reports Internal (its in-process contract); state restoration
    // is an input-validation path, so surface InvalidArgument instead.
    return Status::InvalidArgument("impression state: " + st.message());
  }
  if (out.probs_pinned_) {
    for (const double p : out.probs_) {
      if (!(p > 0.0) || p > 1.0) {
        return Status::InvalidArgument(
            "impression state: explicit inclusion probabilities must be in "
            "(0, 1]");
      }
    }
  }
  out.RefreshInclusionProbabilities();
  return out;
}

Status Impression::Validate() const {
  SCIBORQ_RETURN_NOT_OK(rows_.Validate());
  if (size() > capacity_) {
    return Status::Internal("impression exceeds its capacity");
  }
  if (static_cast<int64_t>(weights_.size()) != size() ||
      static_cast<int64_t>(source_ids_.size()) != size()) {
    return Status::Internal("impression parallel arrays out of sync");
  }
  if (!probs_.empty() && static_cast<int64_t>(probs_.size()) != size()) {
    return Status::Internal("inclusion probability vector out of sync");
  }
  if (population_seen_ < size()) {
    return Status::Internal("population smaller than sample");
  }
  return Status::OK();
}

std::string Impression::ToString() const {
  return StrFormat(
      "Impression('%s', %s, %lld/%lld rows, population=%lld, %lld bytes)",
      name_.c_str(), std::string(SamplingPolicyToString(policy_)).c_str(),
      static_cast<long long>(size()), static_cast<long long>(capacity_),
      static_cast<long long>(population_seen_),
      static_cast<long long>(MemoryUsageBytes()));
}

}  // namespace sciborq
