#include "stats/estimators.h"

#include <cmath>
#include <limits>

#include "util/string_util.h"

namespace sciborq {

double NormalQuantile(double p) {
  // Acklam's rational approximation to the inverse normal CDF.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  constexpr double p_high = 1.0 - p_low;

  if (p <= 0.0) return -std::numeric_limits<double>::infinity();
  if (p >= 1.0) return std::numeric_limits<double>::infinity();

  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p <= p_high) {
    const double q = p - 0.5;
    const double r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
           q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  }
  const double q = std::sqrt(-2.0 * std::log(1.0 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
}

double AggregateEstimate::RelativeError() const {
  if (exact) return 0.0;
  const double half_width = 0.5 * (ci_hi - ci_lo);
  if (half_width <= 0.0) return 0.0;
  if (estimate == 0.0) return std::numeric_limits<double>::infinity();
  return half_width / std::abs(estimate);
}

std::string AggregateEstimate::ToString() const {
  if (exact) {
    return StrFormat("%.6g (exact, %lld rows)", estimate,
                     static_cast<long long>(sample_rows));
  }
  return StrFormat("%.6g  [%0.6g, %0.6g] @%.0f%%  (rel_err=%.4f, n=%lld)",
                   estimate, ci_lo, ci_hi, confidence * 100.0, RelativeError(),
                   static_cast<long long>(sample_rows));
}

AggregateEstimate NormalEstimate(double estimate, double std_error,
                                 double confidence, int64_t sample_rows) {
  AggregateEstimate out;
  out.estimate = estimate;
  out.std_error = std_error;
  out.confidence = confidence;
  out.sample_rows = sample_rows;
  const double z = NormalQuantile(0.5 + confidence / 2.0);
  out.ci_lo = estimate - z * std_error;
  out.ci_hi = estimate + z * std_error;
  return out;
}

namespace {

/// What both HT finishes check: the confidence, and that every folded pi
/// was in (0, 1].
Status ValidateInputs(double confidence, bool probabilities_valid) {
  if (!(confidence > 0.0) || !(confidence < 1.0)) {
    return Status::InvalidArgument("confidence must be in (0, 1)");
  }
  if (!probabilities_valid) {
    return Status::InvalidArgument("inclusion probabilities must be in (0, 1]");
  }
  return Status::OK();
}

}  // namespace

void HtMoments::Merge(const HtMoments& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  count_ += other.count_;
  total_ += other.total_;
  total_var_ += other.total_var_;
  population_ += other.population_;
  // Chan's pairwise combination of the weighted residual moments.
  const double weight = resid_weight_ + other.resid_weight_;
  if (other.resid_weight_ > 0.0) {
    const double delta = other.resid_mean_ - resid_mean_;
    resid_m2_ += other.resid_m2_ +
                 delta * delta * (resid_weight_ * other.resid_weight_ / weight);
    resid_mean_ += delta * (other.resid_weight_ / weight);
  }
  resid_weight_ = weight;
  valid_ = valid_ && other.valid_;
}

Result<AggregateEstimate> HtMoments::Total(double confidence) const {
  SCIBORQ_RETURN_NOT_OK(ValidateInputs(confidence, valid_));
  return NormalEstimate(total_, std::sqrt(total_var_), confidence, count_);
}

Result<AggregateEstimate> HtMoments::Mean(double confidence) const {
  SCIBORQ_RETURN_NOT_OK(ValidateInputs(confidence, valid_));
  if (!(population_ > 0.0)) {
    return Status::InvalidArgument(
        "cannot estimate a mean from 0 sample rows (added with AddForMean)");
  }
  const double ratio = total_ / population_;
  // Σ a (y − ratio)² = Σ a (y − m)² + (Σ a)(m − ratio)², m the a-weighted
  // mean: both terms are sums of squares of small differences.
  const double shift = resid_mean_ - ratio;
  const double var = (resid_m2_ + resid_weight_ * shift * shift) /
                     (population_ * population_);
  return NormalEstimate(ratio, std::sqrt(var), confidence, count_);
}

}  // namespace sciborq
