#ifndef SCIBORQ_STATS_ESTIMATORS_H_
#define SCIBORQ_STATS_ESTIMATORS_H_

#include <cstdint>
#include <string>

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

/// An estimate with the normal-theory interval estimate ± z·std_error, z the
/// two-sided standard normal quantile of `confidence`.
AggregateEstimate NormalEstimate(double estimate, double std_error,
                                 double confidence, int64_t sample_rows);

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
// Horvitz–Thompson estimation for biased (unequal-probability) samples.
// Each sampled row carries its inclusion probability pi_i; the HT estimator
//   total = Σ y_i / pi_i
// is unbiased for any probability design. Variance uses the Poisson-design
// approximation Σ (1 - pi_i) (y_i / pi_i)^2, which is the standard surrogate
// when joint inclusion probabilities are unavailable (Fog's Fisher model is
// exactly the conditioned-Poisson design).
// ---------------------------------------------------------------------------

/// Streaming Horvitz–Thompson state of one aggregate over sampled rows: each
/// row adds its value y and its inclusion probability pi (the row stands for
/// 1/pi population rows; COUNT adds y = 1). Partials merge like
/// RunningMoments, so the executor folds it per morsel next to the base's
/// moments. Folded from empty, the sums run in row order: one stream of rows
/// gives the textbook single-pass sums bit for bit.
class HtMoments {
 public:
  /// Adds a row to the HT total Σ y/pi and its variance (COUNT, SUM).
  void Add(double y, double pi) {
    const double expanded = y / pi;
    ++count_;
    total_ += expanded;
    total_var_ += (1.0 - pi) * expanded * expanded;
    valid_ = valid_ && pi > 0.0 && pi <= 1.0;
  }

  /// Add, plus what Mean reads: the population Σ 1/pi and the residual
  /// moments — West's weighted update of the mean of y under the weight
  /// a = (1 − pi)/pi² and of Σ a (y − mean)², never Σ a·y² (AVG).
  void AddForMean(double y, double pi) {
    Add(y, pi);
    const double weight = 1.0 / pi;
    const double resid_weight = (1.0 - pi) * weight * weight;
    population_ += weight;
    resid_weight_ += resid_weight;
    if (resid_weight_ > 0.0) {
      const double delta = y - resid_mean_;
      resid_mean_ += delta * (resid_weight / resid_weight_);
      resid_m2_ += resid_weight * delta * (y - resid_mean_);
    }
  }

  /// Folds another state in (morsel partials, in fold order).
  void Merge(const HtMoments& other);

  /// Rows added.
  int64_t count() const { return count_; }
  /// The HT total Σ y/pi so far (Total's estimate, unchecked).
  double total() const { return total_; }

  /// HT estimate of the population total Σ y/pi (COUNT and SUM).
  /// InvalidArgument when confidence is outside (0, 1) or a row's pi was
  /// outside (0, 1].
  Result<AggregateEstimate> Total(double confidence = 0.95) const;

  /// HT (Hájek ratio) estimate of the population mean r = Σ(y/pi) / Σ(1/pi)
  /// with the linearized variance (1/N̂²) Σ (1 − pi) ((y − r) / pi)², over
  /// rows added with AddForMean. The sum of squares comes from the streamed
  /// residual moments, so a large common offset in y costs no precision.
  /// InvalidArgument as Total, or over zero rows.
  Result<AggregateEstimate> Mean(double confidence = 0.95) const;

 private:
  int64_t count_ = 0;
  double total_ = 0.0;         ///< Σ y/pi
  double total_var_ = 0.0;     ///< Σ (1 − pi)(y/pi)²
  double population_ = 0.0;    ///< Σ 1/pi (AddForMean)
  double resid_weight_ = 0.0;  ///< Σ (1 − pi)/pi² (AddForMean)
  double resid_mean_ = 0.0;    ///< resid_weight-weighted mean of y
  double resid_m2_ = 0.0;      ///< Σ (1 − pi)/pi² (y − resid_mean)²
  bool valid_ = true;          ///< every pi so far in (0, 1]
};

/// Where a sampled table's inclusion probabilities live: row r was drawn
/// with probability π_r and stands for 1/π_r population rows. Either one π
/// per row or one π shared by every row.
struct InclusionProbabilities {
  const double* per_row = nullptr;  ///< null = every row has `shared`
  double shared = 1.0;

  double at(int64_t row) const {
    return per_row != nullptr ? per_row[row] : shared;
  }
};

}  // namespace sciborq

#endif  // SCIBORQ_STATS_ESTIMATORS_H_
