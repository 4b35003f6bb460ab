#ifndef SCIBORQ_WORKLOAD_INTEREST_TRACKER_H_
#define SCIBORQ_WORKLOAD_INTEREST_TRACKER_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "column/table.h"
#include "exec/query.h"
#include "stats/histogram.h"
#include "util/result.h"

namespace sciborq {

/// The complete resumable state of an InterestTracker (persistent storage):
/// the observation count and every tracked attribute's histogram. Restoring
/// it resumes workload-biased sampling with the exact interest profile the
/// saved tracker had.
struct InterestTrackerState {
  int64_t observed_points = 0;
  struct Attribute {
    std::string column;
    StreamingHistogram::State hist;
  };
  std::vector<Attribute> attributes;
};

/// Tracks the focal points of the exploration: one streaming predicate-set
/// histogram (Fig. 5) per attribute of interest, each exposing the paper's
/// constant-time binned density estimate f̆ (§4). The per-attribute weights
/// combine into one tuple weight by their geometric mean, the paper's
/// combine function c(t) = f̆(t.att1) ∘ ... ∘ f̆(t.attm) (§4, footnote 4),
/// which keeps the weight on the scale of a single attribute's. Impression
/// builders query TupleWeight() for each ingested tuple; Engine::Query calls
/// ObserveQuery() after every answer, closing the adaptive loop of §3.1.
///
/// Not internally synchronized: the tracker carries no mutex of its own.
/// The engine declares its instance GUARDED_BY the per-table workload_mu;
/// the ingest path additionally reaches it through ImpressionSpec::tracker
/// while holding the table's data lock exclusively, which excludes every
/// workload_mu holder (they all hold the data lock shared) — see the
/// locking note on Engine::TableEntry.
class InterestTracker {
 public:
  /// Geometry of one tracked attribute's histogram.
  struct AttributeSpec {
    std::string column;
    double domain_min = 0.0;
    double bin_width = 1.0;
    int num_bins = 64;
  };

  /// Ceiling on the attribute count; with StreamingHistogram::kMaxBins it
  /// bounds what one table config can make the tracker allocate.
  static constexpr int kMaxAttributes = 16;

  /// InvalidArgument on duplicate columns, bad geometry, or more than
  /// kMaxAttributes attributes.
  static Result<InterestTracker> Make(std::vector<AttributeSpec> attributes);

  /// Folds every predicate point of `query` into the matching histograms.
  /// Points on untracked columns are ignored.
  void ObserveQuery(const AggregateQuery& query);

  /// Folds one raw predicate value for `column` (used when replaying logs).
  void ObserveValue(const std::string& column, double value);

  /// The workload weight of a tuple: the geometric mean (Π w_a)^(1/m) of
  /// w_a = f̆_a(v_a) · N_a over the m tracked attributes present in the row.
  /// Tuples are addressed positionally through pre-resolved bindings — see
  /// BindColumns().
  ///
  /// Returns 1.0 for every tuple until any query has been observed, so a cold
  /// tracker degrades the biased reservoir to Algorithm R exactly.
  double TupleWeight(const Table& table,
                     const std::vector<int>& bound_columns, int64_t row) const;

  /// Resolves the tracked attributes against a schema once per batch;
  /// returns one column index per tracked attribute (-1 if absent).
  std::vector<int> BindColumns(const Schema& schema) const;

  /// Ages every histogram (counts *= factor); see StreamingHistogram::Decay.
  void Decay(double factor);

  /// Total number of predicate values observed across all attributes.
  int64_t observed_points() const { return observed_points_; }

  int num_attributes() const { return static_cast<int>(attrs_.size()); }
  const std::string& attribute_name(int i) const {
    return attrs_[static_cast<size_t>(i)].column;
  }
  /// The predicate-set histogram of attribute i; its domain is fixed.
  const StreamingHistogram& histogram(int i) const {
    return attrs_[static_cast<size_t>(i)].hist;
  }

  /// Deep copy of the complete resumable state, for serialization.
  InterestTrackerState SaveState() const;
  /// Rebuilds a tracker from captured (or deserialized) state.
  static Result<InterestTracker> Restore(InterestTrackerState state);

 private:
  struct TrackedAttribute {
    std::string column;
    StreamingHistogram hist;
  };

  /// Indexes `attrs` by column: InvalidArgument when empty or duplicated.
  static Result<InterestTracker> FromAttributes(
      std::vector<TrackedAttribute> attrs);

  explicit InterestTracker(std::vector<TrackedAttribute> attrs)
      : attrs_(std::move(attrs)) {}

  std::vector<TrackedAttribute> attrs_;
  std::unordered_map<std::string, int> index_;
  int64_t observed_points_ = 0;
};

}  // namespace sciborq

#endif  // SCIBORQ_WORKLOAD_INTEREST_TRACKER_H_
