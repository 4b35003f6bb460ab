#ifndef SCIBORQ_CORE_HIERARCHY_H_
#define SCIBORQ_CORE_HIERARCHY_H_

#include <optional>
#include <string>
#include <vector>

#include "core/impression.h"
#include "core/impression_builder.h"
#include "core/sharded_builder.h"
#include "util/result.h"
#include "util/rng.h"

namespace sciborq {

/// A multi-layer hierarchy of impressions (§3.1 "Layers"): layer 0 is the
/// largest impression, sampled directly from the base stream; every deeper
/// layer is *derived* from the layer above it by uniform subsampling, so it
/// inherits the parent's focal bias ("the focal point of the larger
/// impression is inherited by the smaller") and its maintenance touches only
/// the parent, never the base data.
///
/// Inclusion probabilities compose multiplicatively down the chain and are
/// pinned on each derived layer at refresh time, so estimates off any layer
/// remain unbiased for the base population.
///
/// The bounded executor walks layers from the *smallest* upward and falls
/// back to the base table when even layer 0 misses the error bound.
/// Tuning knobs for hierarchy maintenance.
struct HierarchyOptions {
  /// Derived layers are refreshed at the end of an ingest call once this
  /// many tuples arrived since the last refresh (small layers need "fast
  /// reflexes", §3.1). 0 = refresh once per ingest call, however many parts
  /// (time-bucket strata) the call feeds the top layer. The count is checked
  /// per call, never between the parts of one call.
  int64_t refresh_interval = 0;
  /// Parallel database loads (§1): with more than one shard, the top layer
  /// is maintained by a ShardedImpressionBuilder whose shards each consume a
  /// contiguous slice of every ingest batch from their own load thread, and
  /// the queryable top impression is their weighted merge (materialized at
  /// refresh time). 1 = single serial builder (default), 0 = one shard per
  /// hardware thread, n = n shards. Deterministic for any fixed value.
  ///
  /// Two consequences of merge-at-refresh to plan around:
  ///  - each refresh pays an O(shards · capacity) merge pass on top of layer
  ///    derivation, so for high-frequency small batches set refresh_interval
  ///    well above the batch size (the default 0 re-merges every call);
  ///  - between refreshes layer(0) serves the last merged snapshot (it lags
  ///    live ingest by up to refresh_interval tuples), whereas the serial
  ///    top layer is always live. population_seen() is live in both modes.
  int load_shards = 1;
};

/// The complete resumable state of an ImpressionHierarchy, as plain data.
/// Captured by SaveState(), serialized by storage/snapshot.h, rebuilt by
/// Restore(). Holds the top builder(s) (one entry = serial, several =
/// parallel-load shards), the materialized shard merge (sharded mode only),
/// every derived layer as-is (no re-derivation — that would burn RNG draws),
/// and the derivation RNG + refresh counter, so both queries *and* future
/// ingest behave exactly as if the process had never stopped.
struct HierarchyState {
  Rng::State derive_rng;
  int64_t ingested_since_refresh = 0;
  int64_t refresh_interval = 0;
  std::vector<ImpressionBuilderState> top;  ///< one per load shard
  std::optional<ImpressionState> merged_top;  ///< engaged iff top.size() > 1
  std::vector<ImpressionState> derived;       ///< layers 1..L-1
};

class ImpressionHierarchy {
 public:
  struct LayerSpec {
    std::string name;
    int64_t capacity = 0;
  };

  using Options = HierarchyOptions;

  /// `layers` ordered largest to smallest, strictly decreasing capacities.
  /// The top (largest) layer uses `top_spec` (policy/tracker/seed); its name
  /// and capacity come from layers[0].
  static Result<ImpressionHierarchy> Make(const Schema& schema,
                                          std::vector<LayerSpec> layers,
                                          ImpressionSpec top_spec,
                                          Options options = HierarchyOptions());

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

  /// One ingest call: feeds every part to the top layer in order (serial
  /// builder, or the load shards), then refreshes the derived layers once,
  /// when due. A windowed table passes its time-bucket strata here, so a
  /// call that spans several buckets still pays one refresh.
  Status IngestParts(const std::vector<const Table*>& parts);

  /// Feeds one daily-ingest batch: the one-part IngestParts.
  Status IngestBatch(const Table& batch) { return IngestParts({&batch}); }

  /// Rebuilds all derived layers from the layer above (cheap: touches only
  /// impressions).
  Status RefreshDerivedLayers();

  int num_layers() const { return static_cast<int>(layer_specs_.size()); }
  /// Layer 0 is the largest. Derived layers reflect the last refresh.
  const Impression& layer(int i) const;
  /// Layers ordered smallest first — the escalation order.
  std::vector<const Impression*> EscalationOrder() const;

  /// Live count of base tuples streamed into the top layer (across all load
  /// shards when loads are parallel).
  int64_t population_seen() const {
    return sharded_top_ ? sharded_top_->population_seen()
                        : top_builder_->impression().population_seen();
  }

  std::string ToString() const;

 private:
  ImpressionHierarchy(std::vector<LayerSpec> layer_specs, Options options,
                      uint64_t derive_seed)
      : layer_specs_(std::move(layer_specs)),
        options_(options),
        derive_rng_(derive_seed) {}

  /// The queryable top impression: the serial builder's live impression, or
  /// the materialized shard merge under parallel loads.
  const Impression& top_impression() const {
    return sharded_top_ ? *merged_top_ : top_builder_->impression();
  }

  /// Uniform without-replacement subsample of `parent` to `capacity`: a
  /// partial Fisher-Yates draw of parent row ids, then one column-wise
  /// gather of the rows and their weights, provenance and pinned
  /// probabilities.
  Result<Impression> DeriveLayer(const Impression& parent,
                                 const LayerSpec& spec);

  std::vector<LayerSpec> layer_specs_;
  /// Exactly one of the two builders is engaged (load_shards == 1 vs > 1).
  std::optional<ImpressionBuilder> top_builder_;
  std::optional<ShardedImpressionBuilder> sharded_top_;
  /// Shard merge backing layer 0 under parallel loads; refreshed with the
  /// derived layers.
  std::optional<Impression> merged_top_;
  Options options_;
  Rng derive_rng_;
  std::vector<Impression> derived_;  ///< layers 1..L-1
  int64_t ingested_since_refresh_ = 0;
};

}  // namespace sciborq

#endif  // SCIBORQ_CORE_HIERARCHY_H_
