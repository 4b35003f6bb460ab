#ifndef SCIBORQ_STATS_DESCRIPTIVE_H_
#define SCIBORQ_STATS_DESCRIPTIVE_H_

#include <cstdint>
#include <vector>

namespace sciborq {

/// Single-pass mean/variance accumulator (Welford). Mergeable, so morsel
/// partials and coordinator shards can combine their statistics.
class RunningMoments {
 public:
  /// Inline, so a scan loop keeps the state in registers.
  void Add(double value) {
    if (count_ == 0) {
      min_ = value;
      max_ = value;
    } else {
      min_ = value < min_ ? value : min_;
      max_ = value > max_ ? value : max_;
    }
    ++count_;
    const double delta = value - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (value - mean_);
  }
  void Merge(const RunningMoments& other);

  int64_t count() const { return count_; }
  double mean() const { return mean_; }
  /// Sample variance (n-1 denominator); 0 for fewer than 2 values.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  /// Raw sum of squared deviations (the Welford M2 partial). Exposed so the
  /// state can travel between processes and Merge on the far side exactly as
  /// it would have in-process — reconstructing M2 from variance() is not
  /// bit-exact.
  double m2() const { return m2_; }

  /// Rebuilds an accumulator from transported state (the wire decode path).
  /// Merging a FromState copy behaves identically to merging the original.
  static RunningMoments FromState(int64_t count, double mean, double m2,
                                  double min, double max);

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// The count and extremes of a stream of values: what MIN and MAX read of
/// RunningMoments (compared the same way), without the mean's division.
struct RunningExtremes {
  int64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  void Add(double v) {
    min = count == 0 || v < min ? v : min;
    max = count == 0 || v > max ? v : max;
    ++count;
  }
  void Merge(const RunningExtremes& other) {
    if (other.count == 0) return;
    min = count == 0 || other.min < min ? other.min : min;
    max = count == 0 || other.max > max ? other.max : max;
    count += other.count;
  }
};

/// Linear-interpolation quantile of already-sorted data; q in [0, 1].
/// Precondition: `sorted` non-empty and ascending.
double QuantileSorted(const std::vector<double>& sorted, double q);

/// Bins `data` into `num_bins` equi-width counts over [lo, hi); out-of-range
/// values are clamped into the edge bins. The raw material of Figure 7.
std::vector<int64_t> BinCounts(const std::vector<double>& data, double lo,
                               double hi, int num_bins);

/// Mean absolute / root-mean-square difference between two equal-length
/// series (used to compare f̂ and f̆ curves for Figure 4).
double L1Distance(const std::vector<double>& a, const std::vector<double>& b);
double L2Distance(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace sciborq

#endif  // SCIBORQ_STATS_DESCRIPTIVE_H_
