#include "stats/kde.h"

#include <algorithm>
#include <cmath>

namespace sciborq {

namespace {
constexpr double kInvSqrt2Pi = 0.3989422804014327;
}  // namespace

double KernelValue(double u) { return kInvSqrt2Pi * std::exp(-0.5 * u * u); }

Result<FullKde> FullKde::Make(std::vector<double> points, double bandwidth) {
  if (points.empty()) {
    return Status::InvalidArgument("FullKde: need at least one point");
  }
  if (!(bandwidth > 0.0) || !std::isfinite(bandwidth)) {
    return Status::InvalidArgument("FullKde: bandwidth must be positive");
  }
  return FullKde(std::move(points), bandwidth);
}

double FullKde::Evaluate(double x) const {
  double acc = 0.0;
  for (const double xi : points_) {
    acc += KernelValue((x - xi) / bandwidth_);
  }
  return acc / (static_cast<double>(points_.size()) * bandwidth_);
}

namespace {

/// Sample standard deviation and interquartile range of `points`.
void SpreadStats(const std::vector<double>& points, double* sd, double* iqr) {
  const auto n = points.size();
  double mean = 0.0;
  for (const double p : points) mean += p;
  mean /= static_cast<double>(n);
  double ss = 0.0;
  for (const double p : points) ss += (p - mean) * (p - mean);
  *sd = n > 1 ? std::sqrt(ss / static_cast<double>(n - 1)) : 0.0;

  std::vector<double> sorted = points;
  std::sort(sorted.begin(), sorted.end());
  const auto quantile = [&](double q) {
    const double pos = q * static_cast<double>(n - 1);
    const auto lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, n - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
  };
  *iqr = quantile(0.75) - quantile(0.25);
}

}  // namespace

double SilvermanBandwidth(const std::vector<double>& points) {
  if (points.size() < 2) return 0.0;
  double sd = 0.0;
  double iqr = 0.0;
  SpreadStats(points, &sd, &iqr);
  double spread = sd;
  if (iqr > 0.0) spread = std::min(spread, iqr / 1.34);
  if (spread <= 0.0) return 0.0;
  return 0.9 * spread * std::pow(static_cast<double>(points.size()), -0.2);
}

double BinnedKde::Evaluate(double x) const {
  const double n = hist_->weighted_total();
  if (n <= 0.0) return 0.0;
  const double w = hist_->bin_width();
  double acc = 0.0;
  for (const auto& b : hist_->bins()) {
    if (b.count <= 0.0) continue;
    acc += b.count * KernelValue((x - b.mean) / w);
  }
  return acc / (n * w);
}

}  // namespace sciborq
