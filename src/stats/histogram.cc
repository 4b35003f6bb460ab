#include "stats/histogram.h"

#include <cmath>

#include "util/string_util.h"

namespace sciborq {

Result<StreamingHistogram> StreamingHistogram::Make(double domain_min,
                                                    double bin_width,
                                                    int num_bins) {
  if (num_bins <= 0) {
    return Status::InvalidArgument("histogram needs at least one bin");
  }
  if (num_bins > kMaxBins) {
    return Status::InvalidArgument(StrFormat(
        "histogram has %d bins; at most %d are allowed", num_bins, kMaxBins));
  }
  if (!(bin_width > 0.0) || !std::isfinite(bin_width)) {
    return Status::InvalidArgument("bin width must be positive and finite");
  }
  if (!std::isfinite(domain_min)) {
    return Status::InvalidArgument("domain min must be finite");
  }
  return StreamingHistogram(domain_min, bin_width, num_bins);
}

int StreamingHistogram::BinIndex(double value) const {
  const double raw = (value - domain_min_) / bin_width_;
  if (raw < 0.0) return 0;
  const int idx = static_cast<int>(raw);
  if (idx >= num_bins()) return num_bins() - 1;
  return idx;
}

void StreamingHistogram::Observe(double value) {
  const double raw = (value - domain_min_) / bin_width_;
  if (raw < 0.0 || raw >= static_cast<double>(num_bins())) ++clamped_count_;
  BinStats& b = bins_[static_cast<size_t>(BinIndex(value))];
  // Fig. 5: hs[i].m = (hs[i].m * (hs[i].c - 1) + v) / hs[i].c  after c++.
  b.count += 1.0;
  b.mean += (value - b.mean) / b.count;
  ++total_count_;
  weighted_total_ += 1.0;
}

void StreamingHistogram::Decay(double factor, double prune_below) {
  if (factor >= 1.0) return;
  weighted_total_ = 0.0;
  for (auto& b : bins_) {
    b.count *= factor;
    if (b.count < prune_below) {
      b.count = 0.0;
      b.mean = 0.0;
    }
    weighted_total_ += b.count;
  }
}

StreamingHistogram::State StreamingHistogram::SaveState() const {
  State state;
  state.domain_min = domain_min_;
  state.bin_width = bin_width_;
  state.bins = bins_;
  state.total_count = total_count_;
  state.clamped_count = clamped_count_;
  state.weighted_total = weighted_total_;
  return state;
}

Result<StreamingHistogram> StreamingHistogram::Restore(State state) {
  SCIBORQ_ASSIGN_OR_RETURN(
      StreamingHistogram hist,
      Make(state.domain_min, state.bin_width,
           static_cast<int>(state.bins.size())));
  if (state.total_count < 0 || state.clamped_count < 0) {
    return Status::InvalidArgument("histogram state: negative counters");
  }
  hist.bins_ = std::move(state.bins);
  hist.total_count_ = state.total_count;
  hist.clamped_count_ = state.clamped_count;
  hist.weighted_total_ = state.weighted_total;
  return hist;
}

std::string StreamingHistogram::ToString() const {
  std::string out = StrFormat("StreamingHistogram(beta=%d, w=%.6g, N=%lld)",
                              num_bins(), bin_width_,
                              static_cast<long long>(total_count_));
  for (int i = 0; i < num_bins(); ++i) {
    const BinStats& b = bins_[static_cast<size_t>(i)];
    if (b.count <= 0.0) continue;
    out += StrFormat("\n  [%g, %g): c=%.3f m=%.6g", BinLeftEdge(i),
                     BinLeftEdge(i) + bin_width_, b.count, b.mean);
  }
  return out;
}

}  // namespace sciborq
