#ifndef SCIBORQ_STATS_HISTOGRAM_H_
#define SCIBORQ_STATS_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/result.h"

namespace sciborq {

/// Streaming equi-width histogram statistics, exactly the structure of the
/// paper's Figure 5: the domain [min, min + beta * width) is divided into
/// `beta` bins and each bin stores only a running (count, mean) pair — the
/// histogram itself is never materialized. This is the per-attribute summary
/// of the *predicate set* (the values requested by the query workload) that
/// feeds the binned kernel density estimator f-breve (see stats/kde.h); the
/// InterestTracker (workload/interest_tracker.h) keeps one per attribute.
///
/// Values outside the domain are clamped into the first/last bin so that a
/// drifting workload is never silently dropped; `clamped_count()` reports how
/// often that happened.
class StreamingHistogram {
 public:
  /// Per-bin statistics from Fig. 5: `struct histo_stats { int c; float m; }`.
  /// `count` is a double because Decay() ages counts geometrically, making
  /// them fractional; before any decay it holds exact integers.
  struct BinStats {
    double count = 0.0;
    double mean = 0.0;
  };

  /// Ceiling on the bin count: a table config arriving over the wire must
  /// not make the process allocate an arbitrary histogram. Eight times the
  /// finest geometry in use (512 bins).
  static constexpr int kMaxBins = 4096;

  /// Creates a histogram over [domain_min, domain_min + num_bins * bin_width).
  /// Returns InvalidArgument for a bin count outside [1, kMaxBins] or a
  /// non-positive width.
  static Result<StreamingHistogram> Make(double domain_min, double bin_width,
                                         int num_bins);

  /// Folds one observed predicate value into its bin (Fig. 5 inner loop).
  void Observe(double value);

  /// Total number of observed values (N in the paper).
  int64_t total_count() const { return total_count_; }
  /// Values that fell outside the domain and were clamped to an edge bin.
  int64_t clamped_count() const { return clamped_count_; }

  int num_bins() const { return static_cast<int>(bins_.size()); }
  double bin_width() const { return bin_width_; }
  double domain_min() const { return domain_min_; }
  double domain_max() const {
    return domain_min_ + bin_width_ * static_cast<double>(bins_.size());
  }

  const BinStats& bin(int i) const { return bins_[static_cast<size_t>(i)]; }
  const std::vector<BinStats>& bins() const { return bins_; }

  /// Bin index for `value`, clamped into [0, num_bins).
  int BinIndex(double value) const;
  /// Left edge of bin i.
  double BinLeftEdge(int i) const {
    return domain_min_ + bin_width_ * static_cast<double>(i);
  }
  /// Center of bin i.
  double BinCenter(int i) const { return BinLeftEdge(i) + 0.5 * bin_width_; }

  /// Exponentially ages all bin counts by `factor` in (0, 1]; means are kept.
  /// This is how an impression's interest profile tracks *shifting* focal
  /// points (paper §3.1 "fast reflexes"): old interest fades geometrically.
  /// Bin counts below `prune_below` are zeroed.
  void Decay(double factor, double prune_below = 1e-6);

  /// The complete resumable state (persistent storage).
  struct State {
    double domain_min = 0.0;
    double bin_width = 1.0;
    std::vector<BinStats> bins;
    int64_t total_count = 0;
    int64_t clamped_count = 0;
    double weighted_total = 0.0;
  };
  State SaveState() const;
  /// InvalidArgument on bad geometry or negative counters.
  static Result<StreamingHistogram> Restore(State state);

  std::string ToString() const;

 private:
  StreamingHistogram(double domain_min, double bin_width, int num_bins)
      : domain_min_(domain_min), bin_width_(bin_width), bins_(num_bins) {}

  double domain_min_;
  double bin_width_;
  std::vector<BinStats> bins_;
  int64_t total_count_ = 0;
  int64_t clamped_count_ = 0;
  /// Fractional total maintained under Decay (counts become non-integral).
  double weighted_total_ = 0.0;

 public:
  /// Total mass including decay scaling; equals total_count() until the first
  /// Decay() call. This is the N used by the density estimator.
  double weighted_total() const { return weighted_total_; }
};

}  // namespace sciborq

#endif  // SCIBORQ_STATS_HISTOGRAM_H_
