#include "sampling/last_seen.h"

#include <cmath>

namespace sciborq {

Result<LastSeenSampler> LastSeenSampler::Make(int64_t capacity, int64_t k,
                                              int64_t expected_ingest,
                                              uint64_t seed,
                                              bool paper_faithful) {
  if (capacity <= 0) {
    return Status::InvalidArgument("last-seen capacity must be positive");
  }
  if (expected_ingest <= 0) {
    return Status::InvalidArgument("expected ingest D must be positive");
  }
  if (k <= 0 || k > expected_ingest) {
    return Status::InvalidArgument("freshness k must be in (0, D]");
  }
  return LastSeenSampler(capacity, k, expected_ingest, seed, paper_faithful);
}

Result<LastSeenSampler> LastSeenSampler::Restore(int64_t capacity, int64_t k,
                                                 int64_t expected_ingest,
                                                 const State& state) {
  SCIBORQ_ASSIGN_OR_RETURN(LastSeenSampler sampler,
                           Make(capacity, k, expected_ingest, 0));
  if (state.seen < 0) {
    return Status::InvalidArgument("last-seen state: negative seen count");
  }
  sampler.seen_ = state.seen;
  sampler.rng_ = Rng::FromState(state.rng);
  return sampler;
}

ReservoirDecision LastSeenSampler::Offer() {
  ++seen_;
  if (seen_ <= capacity_) {
    // Fig. 3: "populate the sample smp with the first n tuples".
    return ReservoirDecision{true, seen_ - 1};
  }
  const double rnd = rng_.NextDouble();
  // Fig. 3: accept iff D * rnd < k.
  if (static_cast<double>(expected_ingest_) * rnd >=
      static_cast<double>(k_)) {
    return ReservoirDecision{false, -1};
  }
  int64_t slot = 0;
  if (paper_faithful_) {
    // Verbatim Fig. 3: smp[floor(n * rnd)] — rnd is conditioned on rnd < k/D,
    // so victims land only in the first ceil(n*k/D) slots.
    slot = static_cast<int64_t>(std::floor(static_cast<double>(capacity_) * rnd));
    if (slot >= capacity_) slot = capacity_ - 1;
  } else {
    slot = static_cast<int64_t>(
        rng_.NextBounded(static_cast<uint64_t>(capacity_)));
  }
  return ReservoirDecision{true, slot};
}

}  // namespace sciborq
