#ifndef SCIBORQ_CORE_IMPRESSION_BUILDER_H_
#define SCIBORQ_CORE_IMPRESSION_BUILDER_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/impression.h"
#include "sampling/biased_reservoir.h"
#include "sampling/last_seen.h"
#include "sampling/reservoir.h"
#include "util/result.h"
#include "workload/interest_tracker.h"

namespace sciborq {

/// Everything needed to build one impression.
struct ImpressionSpec {
  std::string name = "impression";
  int64_t capacity = 10'000;
  SamplingPolicy policy = SamplingPolicy::kUniform;
  uint64_t seed = 42;

  /// Last-seen policy (Fig. 3): acceptance probability k/D with k = capacity,
  /// so the sample keeps only fresh tuples.
  int64_t expected_ingest = 0;  ///< D; required for kLastSeen

  /// Biased policy (Fig. 6): the workload interest source. Non-owning; must
  /// outlive the builder. Cold trackers degrade to Algorithm R gracefully.
  /// Every tracked attribute must be a numeric column of the schema.
  const InterestTracker* tracker = nullptr;
};

/// The resumable state of one ImpressionBuilder: the impression's value
/// state plus the engaged sampler's counters and RNG. Restoring it makes
/// subsequent ingest continue the acceptance stream bit-identically — the
/// property that lets WAL replay after a crash reproduce the exact
/// impressions a never-crashed process would hold.
struct ImpressionBuilderState {
  ImpressionState impression;
  /// Exactly one engaged, matching the spec's policy.
  std::optional<ReservoirSampler::State> uniform;
  std::optional<LastSeenSampler::State> last_seen;
  std::optional<BiasedReservoirSampler::State> biased;
};

/// Streaming construction of one impression, "much like a stream, deciding
/// if [each tuple] should be part of an impression or not" (§3.3). Feed it
/// the daily ingest batches; the impression stays query-ready throughout.
class ImpressionBuilder {
 public:
  /// InvalidArgument on inconsistent spec (e.g. kBiased without tracker, or
  /// with a tracked attribute that is not a numeric column of `schema`).
  static Result<ImpressionBuilder> Make(const Schema& schema,
                                        ImpressionSpec spec);

  /// Offers every row of every part, in order, to the sampler as one ingest
  /// call: the impression's inclusion probabilities are recomputed once, at
  /// the end. Schemas must match the construction schema (InvalidArgument
  /// otherwise, with nothing ingested).
  Status IngestParts(const std::vector<const Table*>& parts);

  /// Offers every row of `batch`: the one-part IngestParts.
  Status IngestBatch(const Table& batch) { return IngestParts({&batch}); }

  /// The live impression (updated in place by IngestBatch).
  const Impression& impression() const { return impression_; }

  /// A consistent deep copy for handing to readers.
  Impression Snapshot(const std::string& name) const;

  /// Deep copy of the builder's resumable state, for serialization.
  ImpressionBuilderState SaveState() const;

  /// Replaces the live impression and sampler with captured state. The state
  /// must match this builder's schema and policy (InvalidArgument
  /// otherwise). On error the builder is left unchanged.
  Status RestoreState(ImpressionBuilderState state);

  const ImpressionSpec& spec() const { return spec_; }

 private:
  ImpressionBuilder(ImpressionSpec spec, Impression impression)
      : spec_(std::move(spec)), impression_(std::move(impression)) {}

  ImpressionSpec spec_;
  Impression impression_;
  std::optional<ReservoirSampler> uniform_;
  std::optional<LastSeenSampler> last_seen_;
  std::optional<BiasedReservoirSampler> biased_;
};

}  // namespace sciborq

#endif  // SCIBORQ_CORE_IMPRESSION_BUILDER_H_
