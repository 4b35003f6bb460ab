#ifndef SCIBORQ_SAMPLING_LAST_SEEN_H_
#define SCIBORQ_SAMPLING_LAST_SEEN_H_

#include <cstdint>

#include "sampling/decision.h"
#include "util/result.h"
#include "util/rng.h"

namespace sciborq {

/// The paper's *Last Seen* impression sampler (Figure 3): tuples are accepted
/// with the *fixed* probability k/D instead of Algorithm R's shrinking n/cnt,
/// so old tuples keep being evicted and the reservoir is biased toward the
/// most recent part of the stream. D is tuned toward the expected daily
/// ingest; k = n keeps only fresh tuples, k < n retains a k/n fresh ratio.
///
/// Figure 3 as printed re-uses a single random draw both for the acceptance
/// test (D*rnd < k) and the victim slot (floor(n*rnd)), which places victims
/// only in the first n*k/D slots and makes eviction non-uniform. We implement
/// the published variant verbatim behind `paper_faithful` (its skew is
/// demonstrated in tests) and default to an independent uniform victim draw,
/// which preserves the recency bias the text describes without the placement
/// artifact.
class LastSeenSampler {
 public:
  /// InvalidArgument unless 0 < k <= capacity <= expected_ingest are sane:
  /// capacity > 0, expected_ingest > 0, 0 < k <= expected_ingest.
  static Result<LastSeenSampler> Make(int64_t capacity, int64_t k,
                                      int64_t expected_ingest, uint64_t seed,
                                      bool paper_faithful = false);

  ReservoirDecision Offer();

  int64_t capacity() const { return capacity_; }
  int64_t seen() const { return seen_; }
  int64_t size() const { return seen_ < capacity_ ? seen_ : capacity_; }
  bool full() const { return seen_ >= capacity_; }
  /// The per-tuple acceptance probability k/D.
  double acceptance_probability() const {
    return static_cast<double>(k_) / static_cast<double>(expected_ingest_);
  }

  /// Resumable sampler state (persistent storage).
  struct State {
    int64_t seen = 0;
    Rng::State rng;
  };
  State SaveState() const { return State{seen_, rng_.SaveState()}; }
  /// Resumes the default (independent victim draw) sampler.
  static Result<LastSeenSampler> Restore(int64_t capacity, int64_t k,
                                         int64_t expected_ingest,
                                         const State& state);

 private:
  LastSeenSampler(int64_t capacity, int64_t k, int64_t expected_ingest,
                  uint64_t seed, bool paper_faithful)
      : capacity_(capacity),
        k_(k),
        expected_ingest_(expected_ingest),
        paper_faithful_(paper_faithful),
        rng_(seed) {}

  int64_t capacity_;
  int64_t k_;
  int64_t expected_ingest_;
  bool paper_faithful_;
  int64_t seen_ = 0;
  Rng rng_;
};

}  // namespace sciborq

#endif  // SCIBORQ_SAMPLING_LAST_SEEN_H_
