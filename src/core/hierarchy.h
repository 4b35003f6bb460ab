#ifndef SCIBORQ_CORE_HIERARCHY_H_
#define SCIBORQ_CORE_HIERARCHY_H_

#include <string>
#include <vector>

#include "core/impression.h"
#include "core/impression_builder.h"
#include "util/result.h"
#include "util/rng.h"

namespace sciborq {

/// The complete resumable state of an ImpressionHierarchy, as plain data.
/// Captured by SaveState(), serialized by storage/snapshot.h, rebuilt by
/// Restore(). Holds the top builder, every derived layer as-is (no
/// re-derivation — that would burn RNG draws) and the derivation RNG, so
/// both queries *and* future ingest behave exactly as if the process had
/// never stopped.
struct HierarchyState {
  Rng::State derive_rng;
  ImpressionBuilderState top;
  std::vector<ImpressionState> derived;  ///< layers 1..L-1
};

/// A multi-layer hierarchy of impressions (§3.1 "Layers"): layer 0 is the
/// largest impression, sampled directly from the base stream by one
/// ImpressionBuilder; every deeper layer is *derived* from the layer above it
/// by uniform subsampling, so it inherits the parent's focal bias ("the focal
/// point of the larger impression is inherited by the smaller") and its
/// maintenance touches only the parent, never the base data.
///
/// Maintenance has one mode: the top layer is always live, and the derived
/// layers are redrawn once at the end of every ingest call, however many
/// parts (time-bucket strata) the call feeds the top layer. Inclusion
/// probabilities compose multiplicatively down the chain and are pinned on
/// each derived layer at refresh time, so estimates off any layer remain
/// unbiased for the base population.
///
/// The bounded executor walks layers from the *smallest* upward and falls
/// back to the base table when even layer 0 misses the error bound.
///
/// Parallel database loads (§1) happen one level up: the coordinator routes
/// contiguous slices of a batch to shard engines, each with its own
/// hierarchy.
class ImpressionHierarchy {
 public:
  struct LayerSpec {
    std::string name;
    int64_t capacity = 0;
  };

  /// Ceiling on the layer count: a table config arriving over the wire must
  /// not make the process build an arbitrary number of impressions.
  static constexpr int kMaxLayers = 16;

  /// `layers` ordered largest to smallest, strictly decreasing capacities.
  /// The top (largest) layer uses `top_spec` (policy/tracker/seed); its name
  /// and capacity come from layers[0].
  static Result<ImpressionHierarchy> Make(const Schema& schema,
                                          std::vector<LayerSpec> layers,
                                          ImpressionSpec top_spec);

  /// Deep copy of the complete resumable state, for serialization. The layer
  /// geometry is implied by the contained impressions (top layer first,
  /// derived layers in order), so the state is self-describing.
  HierarchyState SaveState() const;

  /// Rebuilds a hierarchy from captured (or deserialized) state.
  /// `top_spec` supplies the runtime wiring (policy, seed, tracker pointers)
  /// while name/capacity and all sampler positions come from the state. No
  /// layer is re-derived and no RNG draw is consumed: queries answer
  /// bit-identically to the saved hierarchy, and the next IngestBatch
  /// continues the sampling streams exactly where they stopped.
  static Result<ImpressionHierarchy> Restore(const Schema& schema,
                                             ImpressionSpec top_spec,
                                             HierarchyState state);

  /// One ingest call: feeds every part to the top layer in order as one
  /// builder call (one π refresh), then refreshes the derived layers once.
  /// A windowed table passes its time-bucket strata here, so a call that
  /// spans several buckets still pays one refresh.
  Status IngestParts(const std::vector<const Table*>& parts);

  /// Feeds one daily-ingest batch: the one-part IngestParts.
  Status IngestBatch(const Table& batch) { return IngestParts({&batch}); }

  int num_layers() const { return static_cast<int>(layer_specs_.size()); }
  /// Layer 0 is the largest. Derived layers reflect the last ingest call.
  const Impression& layer(int i) const;
  /// Layers ordered smallest first — the escalation order.
  std::vector<const Impression*> EscalationOrder() const;

  /// Live count of base tuples streamed into the top layer.
  int64_t population_seen() const {
    return top_impression().population_seen();
  }

  std::string ToString() const;

 private:
  ImpressionHierarchy(std::vector<LayerSpec> layer_specs,
                      ImpressionBuilder top_builder, uint64_t derive_seed)
      : layer_specs_(std::move(layer_specs)),
        top_builder_(std::move(top_builder)),
        derive_rng_(derive_seed) {}

  const Impression& top_impression() const {
    return top_builder_.impression();
  }

  /// Rebuilds all derived layers from the layer above (cheap: touches only
  /// impressions).
  Status RefreshDerivedLayers();

  /// Uniform without-replacement subsample of `parent` to `capacity`: a
  /// partial Fisher-Yates draw of parent row ids, then one column-wise
  /// gather of the rows and their weights, provenance and pinned
  /// probabilities.
  Result<Impression> DeriveLayer(const Impression& parent,
                                 const LayerSpec& spec);

  std::vector<LayerSpec> layer_specs_;
  ImpressionBuilder top_builder_;
  Rng derive_rng_;
  std::vector<Impression> derived_;  ///< layers 1..L-1
};

}  // namespace sciborq

#endif  // SCIBORQ_CORE_HIERARCHY_H_
