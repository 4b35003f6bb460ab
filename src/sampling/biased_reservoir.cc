#include "sampling/biased_reservoir.h"

#include <algorithm>
#include <cmath>

namespace sciborq {

Result<BiasedReservoirSampler> BiasedReservoirSampler::Make(
    int64_t capacity, uint64_t seed) {
  if (capacity <= 0) {
    return Status::InvalidArgument("biased reservoir capacity must be positive");
  }
  return BiasedReservoirSampler(capacity, seed);
}

BiasedReservoirSampler::State BiasedReservoirSampler::SaveState() const {
  State state;
  state.seen = seen_;
  state.total_weight = total_weight_;
  state.accepted_post_fill = accepted_post_fill_;
  state.curve_interval = curve_interval_;
  state.curve = curve_;
  state.rng = rng_.SaveState();
  return state;
}

Result<BiasedReservoirSampler> BiasedReservoirSampler::Restore(
    int64_t capacity, State state) {
  SCIBORQ_ASSIGN_OR_RETURN(BiasedReservoirSampler sampler, Make(capacity, 0));
  if (state.seen < 0 || state.accepted_post_fill < 0 ||
      state.curve_interval <= 0) {
    return Status::InvalidArgument(
        "biased reservoir state: negative counters or non-positive curve "
        "interval");
  }
  sampler.seen_ = state.seen;
  sampler.total_weight_ = state.total_weight;
  sampler.accepted_post_fill_ = state.accepted_post_fill;
  sampler.curve_interval_ = state.curve_interval;
  sampler.curve_ = std::move(state.curve);
  sampler.rng_ = Rng::FromState(state.rng);
  return sampler;
}

ReservoirDecision BiasedReservoirSampler::Offer(double weight) {
  if (!(weight > 0.0) || !std::isfinite(weight)) weight = 0.0;
  ++seen_;
  total_weight_ += weight;
  if (seen_ % curve_interval_ == 0) curve_.push_back(accepted_post_fill_);
  if (seen_ <= capacity_) {
    // Fig. 6: "populate the sample smp with the first n tuples".
    return ReservoirDecision{true, seen_ - 1};
  }
  const double rnd = rng_.NextDouble();
  // Fig. 6: accept iff cnt * rnd < n * N * f̆(tpl); `weight` = N * f̆(tpl).
  const double threshold = static_cast<double>(capacity_) * weight /
                           static_cast<double>(seen_);
  if (rnd >= threshold) return ReservoirDecision{false, -1};
  ++accepted_post_fill_;
  const auto slot = static_cast<int64_t>(
      rng_.NextBounded(static_cast<uint64_t>(capacity_)));
  return ReservoirDecision{true, slot};
}

double BiasedReservoirSampler::InclusionProbability(double weight) const {
  if (!(weight > 0.0) || total_weight_ <= 0.0) return 0.0;
  if (seen_ <= capacity_) return 1.0;
  return std::min(1.0, static_cast<double>(capacity_) * weight / total_weight_);
}

}  // namespace sciborq
