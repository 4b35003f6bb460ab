#ifndef SCIBORQ_SAMPLING_BIASED_RESERVOIR_H_
#define SCIBORQ_SAMPLING_BIASED_RESERVOIR_H_

#include <cstdint>
#include <vector>

#include "sampling/decision.h"
#include "util/result.h"
#include "util/rng.h"

namespace sciborq {

/// The paper's biased-sampling reservoir (Figure 6, §4). Each arriving tuple
/// t carries a workload weight — the binned density estimate f̆(t) times the
/// predicate-set size N — and is accepted with probability
///     P(accept t) = f̆(t) · N · n / cnt
/// (clamped to 1), where n is the impression capacity and cnt the number of
/// tuples seen. Tuples from frequently queried regions therefore displace
/// irrelevant ones, concentrating the reservoir around the focal points.
///
/// Like Fig. 3, the printed Fig. 6 re-uses the acceptance draw as the victim
/// slot (smp[floor(rnd*n)]), which — because rnd is conditioned small for
/// low-weight tuples — skews placement. The victim is instead an independent
/// uniform draw, matching the text ("another randomly chosen one is thrown
/// out"); LastSeenSampler keeps the verbatim variant to show the skew.
///
/// For estimation the sampler tracks (a) the running total of offered weight
/// and (b) an *acceptance curve* — cumulative post-fill acceptances sampled
/// at fixed offer intervals. The curve lets callers reconstruct a first-order
/// retention probability for a row that arrived at stream position t with
/// weight w:
///     π ≈ P(accept at t) · P(survive to the end)
///       = min(1, n·w/t) · exp(-(A(T) - A(t)) / n)
/// where A(·) is cumulative acceptances (each acceptance evicts a uniformly
/// random resident, so survival decays by (1 - 1/n) per acceptance). For
/// unit weights this collapses to the exact Algorithm-R inclusion n/T.
/// This model backs the Horvitz–Thompson estimators in stats/estimators.h.
class BiasedReservoirSampler {
 public:
  /// InvalidArgument when capacity <= 0.
  static Result<BiasedReservoirSampler> Make(int64_t capacity, uint64_t seed);

  /// Decides about the next stream tuple whose workload weight is `weight`
  /// (= f̆(t)·N >= 0). Negative/NaN weights are treated as 0 (never sampled
  /// once the reservoir is full).
  ReservoirDecision Offer(double weight);

  int64_t capacity() const { return capacity_; }
  int64_t seen() const { return seen_; }
  int64_t size() const { return seen_ < capacity_ ? seen_ : capacity_; }
  bool full() const { return seen_ >= capacity_; }

  /// Total weight offered so far (Σ_j w_j).
  double total_weight() const { return total_weight_; }

  /// Approximate first-order inclusion probability of a tuple with weight w
  /// under the weights seen so far (the coarse Σw surrogate; the retention
  /// model below is sharper when arrival positions are known).
  double InclusionProbability(double weight) const;

  /// Post-fill acceptances so far (A(T) in the retention model).
  int64_t accepted_post_fill() const { return accepted_post_fill_; }
  /// Cumulative post-fill acceptances recorded every curve_interval() offers:
  /// curve()[k] = acceptances within the first (k+1)·interval offers.
  const std::vector<int64_t>& acceptance_curve() const { return curve_; }
  int64_t curve_interval() const { return curve_interval_; }

  /// Resumable sampler state (persistent storage): stream position, weight
  /// accounting, the acceptance curve, and the RNG.
  struct State {
    int64_t seen = 0;
    double total_weight = 0.0;
    int64_t accepted_post_fill = 0;
    int64_t curve_interval = 0;
    std::vector<int64_t> curve;
    Rng::State rng;
  };
  State SaveState() const;
  static Result<BiasedReservoirSampler> Restore(int64_t capacity,
                                                State state);

 private:
  BiasedReservoirSampler(int64_t capacity, uint64_t seed)
      : capacity_(capacity), rng_(seed) {}

  int64_t capacity_;
  int64_t seen_ = 0;
  double total_weight_ = 0.0;
  int64_t accepted_post_fill_ = 0;
  int64_t curve_interval_ = 4096;
  std::vector<int64_t> curve_;
  Rng rng_;
};

}  // namespace sciborq

#endif  // SCIBORQ_SAMPLING_BIASED_RESERVOIR_H_
