#ifndef SCIBORQ_STATS_ESTIMATORS_H_
#define SCIBORQ_STATS_ESTIMATORS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "column/types.h"
#include "util/result.h"

namespace sciborq {

/// The quantile function of the standard normal (inverse CDF), via Acklam's
/// rational approximation (|relative error| < 1.15e-9). Domain: (0, 1).
double NormalQuantile(double p);

/// A point estimate with its sampling uncertainty, as returned to the user by
/// bounded query processing. `relative_error` is the half-width of the
/// confidence interval divided by |estimate| (infinite when estimate == 0 and
/// the half-width is positive); this is the quantity checked against the
/// user's error bound.
struct AggregateEstimate {
  double estimate = 0.0;
  double std_error = 0.0;
  double ci_lo = 0.0;
  double ci_hi = 0.0;
  double confidence = 0.95;
  int64_t sample_rows = 0;   ///< rows that contributed to the estimate
  bool exact = false;        ///< true when computed on the full base data

  /// CI half-width / |estimate|; +inf for a zero estimate with positive CI.
  double RelativeError() const;

  std::string ToString() const;
};

/// Exact field-wise equality, doubles bit-for-bit (so NaN == NaN, matching
/// the wire layer's bit-exact round-trip guarantee).
inline bool operator==(const AggregateEstimate& a, const AggregateEstimate& b) {
  return BitIdentical(a.estimate, b.estimate) &&
         BitIdentical(a.std_error, b.std_error) &&
         BitIdentical(a.ci_lo, b.ci_lo) && BitIdentical(a.ci_hi, b.ci_hi) &&
         BitIdentical(a.confidence, b.confidence) &&
         a.sample_rows == b.sample_rows && a.exact == b.exact;
}

// ---------------------------------------------------------------------------
// Horvitz–Thompson estimators for biased (unequal-probability) samples.
// Each sampled row carries its inclusion probability pi_i; the HT estimator
//   sum = Σ y_i / pi_i
// is unbiased for any probability design. Variance uses the Poisson-design
// approximation Σ (1 - pi_i) (y_i / pi_i)^2, which is the standard surrogate
// when joint inclusion probabilities are unavailable (Fog's Fisher model is
// exactly the conditioned-Poisson design).
// ---------------------------------------------------------------------------

/// HT estimate of the population sum of y over rows matching a predicate.
/// `values[i]` and `inclusion_probs[i]` describe the i-th *matching* sampled
/// row. Rows with pi <= 0 are InvalidArgument.
Result<AggregateEstimate> EstimateSumHorvitzThompson(
    const std::vector<double>& values,
    const std::vector<double>& inclusion_probs, double confidence = 0.95);

/// HT (Hájek ratio) estimate of the population mean of y over matching rows:
/// HT-sum(y) / HT-sum(1), with a linearized variance.
Result<AggregateEstimate> EstimateMeanHorvitzThompson(
    const std::vector<double>& values,
    const std::vector<double>& inclusion_probs, double confidence = 0.95);

/// HT estimate of the population count of matching rows: Σ 1 / pi_i, bit
/// for bit EstimateSumHorvitzThompson with every y_i = 1.
Result<AggregateEstimate> EstimateCountHorvitzThompson(
    const std::vector<double>& inclusion_probs, double confidence = 0.95);

}  // namespace sciborq

#endif  // SCIBORQ_STATS_ESTIMATORS_H_
