#include "stats/descriptive.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace sciborq {

void RunningMoments::Merge(const RunningMoments& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto total = static_cast<double>(count_ + other.count_);
  m2_ += other.m2_ + delta * delta * static_cast<double>(count_) *
                         static_cast<double>(other.count_) / total;
  mean_ += delta * static_cast<double>(other.count_) / total;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

RunningMoments RunningMoments::FromState(int64_t count, double mean, double m2,
                                         double min, double max) {
  RunningMoments m;
  m.count_ = count;
  m.mean_ = mean;
  m.m2_ = m2;
  m.min_ = min;
  m.max_ = max;
  return m;
}

double RunningMoments::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningMoments::stddev() const { return std::sqrt(variance()); }

double QuantileSorted(const std::vector<double>& sorted, double q) {
  SCIBORQ_DCHECK(!sorted.empty());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

std::vector<int64_t> BinCounts(const std::vector<double>& data, double lo,
                               double hi, int num_bins) {
  SCIBORQ_DCHECK(num_bins > 0);
  SCIBORQ_DCHECK(hi > lo);
  std::vector<int64_t> counts(static_cast<size_t>(num_bins), 0);
  const double width = (hi - lo) / num_bins;
  for (const double v : data) {
    int idx = static_cast<int>((v - lo) / width);
    idx = std::clamp(idx, 0, num_bins - 1);
    ++counts[static_cast<size_t>(idx)];
  }
  return counts;
}

double L1Distance(const std::vector<double>& a, const std::vector<double>& b) {
  SCIBORQ_DCHECK(a.size() == b.size());
  if (a.empty()) return 0.0;
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) acc += std::abs(a[i] - b[i]);
  return acc / static_cast<double>(a.size());
}

double L2Distance(const std::vector<double>& a, const std::vector<double>& b) {
  SCIBORQ_DCHECK(a.size() == b.size());
  if (a.empty()) return 0.0;
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    acc += (a[i] - b[i]) * (a[i] - b[i]);
  }
  return std::sqrt(acc / static_cast<double>(a.size()));
}

}  // namespace sciborq
