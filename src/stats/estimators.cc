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

namespace {

AggregateEstimate MakeEstimate(double est, double std_error, double confidence,
                               int64_t sample_rows) {
  AggregateEstimate out;
  out.estimate = est;
  out.std_error = std_error;
  out.confidence = confidence;
  out.sample_rows = sample_rows;
  const double z = NormalQuantile(0.5 + confidence / 2.0);
  out.ci_lo = est - z * std_error;
  out.ci_hi = est + z * std_error;
  return out;
}

Status ValidateConfidence(double confidence) {
  if (!(confidence > 0.0) || !(confidence < 1.0)) {
    return Status::InvalidArgument("confidence must be in (0, 1)");
  }
  return Status::OK();
}

Status ValidateInclusionProbs(const std::vector<double>& inclusion_probs) {
  for (const double pi : inclusion_probs) {
    if (!(pi > 0.0) || pi > 1.0 || !std::isfinite(pi)) {
      return Status::InvalidArgument(
          "inclusion probabilities must be in (0, 1]");
    }
  }
  return Status::OK();
}

Status ValidateHtInputs(const std::vector<double>& values,
                        const std::vector<double>& inclusion_probs) {
  if (values.size() != inclusion_probs.size()) {
    return Status::InvalidArgument(
        "values and inclusion probabilities differ in length");
  }
  return ValidateInclusionProbs(inclusion_probs);
}

}  // namespace

Result<AggregateEstimate> EstimateSumHorvitzThompson(
    const std::vector<double>& values,
    const std::vector<double>& inclusion_probs, double confidence) {
  SCIBORQ_RETURN_NOT_OK(ValidateConfidence(confidence));
  SCIBORQ_RETURN_NOT_OK(ValidateHtInputs(values, inclusion_probs));
  double ht_sum = 0.0;
  double var = 0.0;
  for (size_t i = 0; i < values.size(); ++i) {
    const double expanded = values[i] / inclusion_probs[i];
    ht_sum += expanded;
    var += (1.0 - inclusion_probs[i]) * expanded * expanded;
  }
  return MakeEstimate(ht_sum, std::sqrt(var), confidence,
                      static_cast<int64_t>(values.size()));
}

Result<AggregateEstimate> EstimateMeanHorvitzThompson(
    const std::vector<double>& values,
    const std::vector<double>& inclusion_probs, double confidence,
    double* ht_count_out) {
  SCIBORQ_RETURN_NOT_OK(ValidateConfidence(confidence));
  SCIBORQ_RETURN_NOT_OK(ValidateHtInputs(values, inclusion_probs));
  if (values.empty()) {
    return Status::InvalidArgument("cannot estimate a mean from 0 sample rows");
  }
  double ht_sum = 0.0;
  double ht_count = 0.0;
  for (size_t i = 0; i < values.size(); ++i) {
    ht_sum += values[i] / inclusion_probs[i];
    ht_count += 1.0 / inclusion_probs[i];
  }
  const double ratio = ht_sum / ht_count;
  // Linearized (Taylor) variance of the Hájek ratio estimator:
  // Var ≈ (1/N̂²) Σ (1 − π_i) ((y_i − ratio) / π_i)².
  double var = 0.0;
  for (size_t i = 0; i < values.size(); ++i) {
    const double resid = (values[i] - ratio) / inclusion_probs[i];
    var += (1.0 - inclusion_probs[i]) * resid * resid;
  }
  var /= ht_count * ht_count;
  if (ht_count_out != nullptr) *ht_count_out = ht_count;
  return MakeEstimate(ratio, std::sqrt(var), confidence,
                      static_cast<int64_t>(values.size()));
}

Result<AggregateEstimate> EstimateCountHorvitzThompson(
    const std::vector<double>& inclusion_probs, double confidence) {
  SCIBORQ_RETURN_NOT_OK(ValidateConfidence(confidence));
  SCIBORQ_RETURN_NOT_OK(ValidateInclusionProbs(inclusion_probs));
  // EstimateSumHorvitzThompson with every y_i = 1, in its operation order:
  // Σ 1/π and Σ (1 − π)(1/π)(1/π).
  double ht_count = 0.0;
  double var = 0.0;
  for (const double pi : inclusion_probs) {
    const double expanded = 1.0 / pi;
    ht_count += expanded;
    var += (1.0 - pi) * expanded * expanded;
  }
  return MakeEstimate(ht_count, std::sqrt(var), confidence,
                      static_cast<int64_t>(inclusion_probs.size()));
}

}  // namespace sciborq
