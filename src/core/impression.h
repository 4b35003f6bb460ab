#ifndef SCIBORQ_CORE_IMPRESSION_H_
#define SCIBORQ_CORE_IMPRESSION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "column/table.h"
#include "stats/estimators.h"
#include "util/check.h"
#include "util/result.h"

namespace sciborq {

/// How the rows of an impression were selected.
enum class SamplingPolicy {
  kUniform,   ///< reservoir Algorithm R (Fig. 2)
  kLastSeen,  ///< recency-biased fixed-probability reservoir (Fig. 3)
  kBiased,    ///< workload-biased reservoir steered by f̆ (Fig. 6, §4)
};

std::string_view SamplingPolicyToString(SamplingPolicy policy);

/// Zone-map granularity of a clustered impression: 64 zones on a 64Ki-row
/// layer, so a focal cone reads the few zones it can reach.
inline constexpr int64_t kLayerZoneRows = 1024;

/// The physical order of a clustered impression: Z-order (a Morton code)
/// over the table's tracked attributes, each quantised over its fixed
/// histogram domain, ties broken by sampler slot. The queries that steer a
/// biased sample are cones around the same focal points (§3.1, §4), so in
/// this order each cone's matches sit in few zones and zone maps skip the
/// rest. Empty: rows stay in slot (arrival) order without zone maps.
struct ClusterKey {
  struct Attribute {
    int column = -1;  ///< numeric column of the impression's schema
    double domain_min = 0.0;
    double domain_max = 1.0;
  };
  std::vector<Attribute> attributes;

  bool empty() const { return attributes.empty(); }
};

/// The complete value state of one Impression, as plain data — what
/// persistent storage serializes (storage/snapshot.h) and what
/// Impression::FromState rebuilds bit-identically. Field-for-field mirror of
/// the Impression privates; every estimator input (weights, provenance,
/// pinned probabilities, the acceptance model) travels with the rows.
struct ImpressionState {
  std::string name;
  int64_t capacity = 0;
  SamplingPolicy policy = SamplingPolicy::kUniform;
  Table rows;
  std::vector<double> weights;
  std::vector<int64_t> source_ids;
  std::vector<double> explicit_probs;  ///< empty unless derived
  int64_t population_seen = 0;
  double population_weight = 0.0;
  int64_t expected_ingest = 0;
  std::vector<int64_t> acceptance_curve;
  int64_t curve_interval = 0;
  int64_t total_accepted = 0;
};

/// An impression (§3): a bounded, columnar, workload-aware sample of a base
/// relation that is itself a query target. Beyond the sampled rows it keeps
/// exactly the bookkeeping the bounded executor needs to turn raw sample
/// aggregates into population estimates with confidence intervals:
///
///  - per-row workload weights (biased policy) or 1.0,
///  - per-row provenance (position in the base stream),
///  - the population size streamed past the builder and its total weight,
///  - every row's inclusion probability π, materialised once per ingest
///    call (FinishBatch) rather than per query. A derived impression pins
///    its π at derivation time instead, where the chain
///    π_child = π_parent · n_child / n_parent is fixed.
///
/// Rows have two orders. Samplers, derivation and SaveState address *slots*:
/// the arrival order, in which ImpressionState travels. With a ClusterKey
/// the physical rows are kept in that key's Z-order instead, re-sorted at
/// the end of every ingest call (FinishBatch) and on FromState, and the
/// key's columns carry zone maps every kLayerZoneRows rows; RowOfSlot maps
/// one order onto the other. Every per-row vector follows the physical
/// order.
class Impression {
 public:
  Impression(std::string name, Schema schema, int64_t capacity,
             SamplingPolicy policy, ClusterKey cluster_key = {});

  const std::string& name() const { return name_; }
  SamplingPolicy policy() const { return policy_; }
  int64_t capacity() const { return capacity_; }
  const ClusterKey& cluster_key() const { return cluster_key_; }

  /// The sampled rows in physical (clustered) order.
  const Table& rows() const { return rows_; }
  int64_t size() const { return rows_.num_rows(); }
  /// Physical row of sampler slot `slot`.
  int64_t RowOfSlot(int64_t slot) const {
    SCIBORQ_DCHECK(slot >= 0 && slot < size());
    return slot_rows_[static_cast<size_t>(slot)];
  }

  /// Base tuples streamed past the sampler (cnt in the paper's figures).
  int64_t population_seen() const { return population_seen_; }
  /// Σ of workload weights over the streamed population (biased policy).
  double population_weight() const { return population_weight_; }

  const std::vector<double>& row_weights() const { return weights_; }
  const std::vector<int64_t>& source_ids() const { return source_ids_; }

  /// First-order inclusion probability of stored row `row`, a lookup of the
  /// value the last FinishBatch (or FromState) computed:
  ///  - derived impressions: the probabilities pinned at derivation;
  ///  - uniform: n / cnt;
  ///  - biased: min(1, n·w/t) · exp(-(A(T) − A(t)) / n) under the
  ///    acceptance model (see FinishBatch), else the conditioned-Poisson
  ///    surrogate min(1, n · w_row / Σw);
  ///  - last-seen: n / min(cnt, W) where W = n·D/k is the effective recency
  ///    window the sample turns over (estimates then speak about the recent
  ///    window rather than the full history — by design, §3.3).
  /// Uniform and last-seen top layers share one π across their rows.
  double InclusionProbability(int64_t row) const {
    SCIBORQ_DCHECK(row >= 0 && row < size());
    return inclusion_probabilities().at(row);
  }

  /// Every row's InclusionProbability, as the aggregation fold reads them.
  InclusionProbabilities inclusion_probabilities() const {
    return {probs_.empty() ? nullptr : probs_.data(), common_prob_};
  }

  /// Memory footprint of the sampled rows (the §3.1 size knob).
  int64_t MemoryUsageBytes() const { return rows_.MemoryUsageBytes(); }

  /// Deep copy with a new name (layer derivation, snapshotting).
  Impression Clone(std::string new_name) const;

  /// Deep copy of the full value state, for serialization, rows in slot
  /// order.
  ImpressionState SaveState() const;

  /// Rebuilds an impression from captured (or deserialized) state, then
  /// clusters it on `cluster_key`. InvalidArgument when the state is
  /// internally inconsistent (parallel array lengths, capacity bounds) — the
  /// second line of defense behind the storage layer's checksums.
  static Result<Impression> FromState(ImpressionState state,
                                      ClusterKey cluster_key = {});

  /// Checks the parallel arrays and table agree.
  Status Validate() const;

  std::string ToString() const;

  // -- Mutation interface used by builders/derivation (not user code). --

  /// Appends `src_row` of `src` with the given weight/provenance.
  void AppendSampledRow(const Table& src, int64_t src_row, double weight,
                        int64_t source_id);
  /// Overwrites the row of slot `slot` (reservoir eviction).
  void ReplaceSampledRow(int64_t slot, const Table& src, int64_t src_row,
                         double weight, int64_t source_id);
  /// Last-seen ingest size D, needed for the effective-window semantics
  /// (the freshness k is the capacity). Set once, before any row.
  void set_expected_ingest(int64_t expected_ingest) {
    expected_ingest_ = expected_ingest;
    RefreshInclusionProbabilities();
  }

  /// Ends one ingest call: records the population streamed past the sampler
  /// (cnt) and its total weight, re-clusters the rows, then recomputes π.
  /// Builders call it once, after their last AppendSampledRow /
  /// ReplaceSampledRow of the call, so a reader never sees a stale π or a
  /// stale zone map. Biased impressions also pass the sampler's
  /// retention model A: its acceptance curve (cumulative post-fill
  /// acceptances every `curve_interval` offers) and the final total A(T).
  void FinishBatch(int64_t population_seen, double population_weight,
                   std::vector<int64_t> acceptance_curve = {},
                   int64_t curve_interval = 0, int64_t total_accepted = 0);
  bool has_acceptance_model() const { return curve_interval_ > 0; }

 private:
  /// Adopts `rows` as-is, in slot order: FromState's constructor.
  Impression(std::string name, int64_t capacity, SamplingPolicy policy,
             Table rows, ClusterKey cluster_key);

  std::string name_;
  int64_t capacity_;
  SamplingPolicy policy_;
  ClusterKey cluster_key_;
  Table rows_;
  /// Physical row of each sampler slot; the identity without a cluster key.
  std::vector<int64_t> slot_rows_;
  std::vector<double> weights_;
  std::vector<int64_t> source_ids_;
  int64_t population_seen_ = 0;
  double population_weight_ = 0.0;
  int64_t expected_ingest_ = 0;
  std::vector<int64_t> acceptance_curve_;
  int64_t curve_interval_ = 0;
  int64_t total_accepted_ = 0;
  /// π per row: pinned at derivation, or recomputed from the model above by
  /// RefreshInclusionProbabilities. Empty when every row has `common_prob_`.
  std::vector<double> probs_;
  double common_prob_ = 1.0;
  /// Derived: `probs_` is state (ImpressionState::explicit_probs), not a
  /// value recomputed from the model.
  bool probs_pinned_ = false;

  /// Puts the rows (and every per-row vector) in cluster-key order and
  /// builds the key columns' zone maps; no-op without a key.
  void Cluster();
  /// Recomputes `probs_`/`common_prob_` from the model; no-op when pinned.
  void RefreshInclusionProbabilities();
  /// Interpolated cumulative post-fill acceptances after `position` offers.
  double AcceptancesAt(double position) const;
};

}  // namespace sciborq

#endif  // SCIBORQ_CORE_IMPRESSION_H_
