#ifndef SCIBORQ_STATS_KDE_H_
#define SCIBORQ_STATS_KDE_H_

#include <cstdint>
#include <vector>

#include "stats/histogram.h"
#include "util/result.h"

namespace sciborq {

/// K(u): the standard normal kernel φ evaluated at a normalized offset —
/// the one kernel of the paper's estimators (§4).
double KernelValue(double u);

/// The full kernel density estimator f-hat of the paper (§4):
///   f̂(x) = N^{-1} Σ_i K_h(x − x_i),  K_h(u) = h^{-1} K(u / h).
/// It stores all N observed predicate values, so evaluation is O(N) — this is
/// exactly the cost the binned estimator below is designed to avoid.
class FullKde {
 public:
  /// InvalidArgument when `points` is empty or `bandwidth` is not positive.
  static Result<FullKde> Make(std::vector<double> points, double bandwidth);

  /// Density estimate at x; O(N).
  double Evaluate(double x) const;

  double bandwidth() const { return bandwidth_; }
  int64_t num_points() const { return static_cast<int64_t>(points_.size()); }

 private:
  FullKde(std::vector<double> points, double bandwidth)
      : points_(std::move(points)), bandwidth_(bandwidth) {}

  std::vector<double> points_;
  double bandwidth_;
};

/// Silverman's rule-of-thumb bandwidth: 0.9 * min(sd, IQR/1.34) * n^{-1/5}.
/// Returns 0 for fewer than 2 points or degenerate spread.
double SilvermanBandwidth(const std::vector<double>& points);

/// The paper's constant-time binned estimator f-breve (§4):
///   f̆(x) = 1 / (N·w) Σ_{i=1..β} c_i · φ((x − m_i) / w)
/// where (c_i, m_i) are the per-bin count and mean of the predicate-set
/// histogram and the bandwidth is pinned to the bin width w. Evaluation is
/// O(β) with β ≪ N and independent of the workload size.
///
/// Holds a non-owning pointer to the histogram so that the estimate tracks
/// the live workload statistics (the adaptivity property of §3.1); the
/// histogram must outlive the estimator.
class BinnedKde {
 public:
  explicit BinnedKde(const StreamingHistogram* hist) : hist_(hist) {}

  /// Density estimate at x; O(β). Returns 0 when no values observed yet.
  double Evaluate(double x) const;

  /// The workload mass N backing the estimate (weighted under decay).
  double total_weight() const { return hist_->weighted_total(); }

  const StreamingHistogram& histogram() const { return *hist_; }

 private:
  const StreamingHistogram* hist_;
};

/// Simpson-rule integral of a density over [lo, hi]; test/diagnostic helper
/// for verifying that estimators integrate to ~1 (the paper's §4 identity).
template <typename F>
double IntegrateDensity(const F& f, double lo, double hi, int steps = 2000) {
  if (steps % 2 != 0) ++steps;
  const double h = (hi - lo) / steps;
  double acc = f(lo) + f(hi);
  for (int i = 1; i < steps; ++i) {
    acc += f(lo + h * i) * ((i % 2 == 0) ? 2.0 : 4.0);
  }
  return acc * h / 3.0;
}

}  // namespace sciborq

#endif  // SCIBORQ_STATS_KDE_H_
