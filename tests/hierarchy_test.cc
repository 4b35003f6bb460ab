#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "util/binio.h"
#include "util/rng.h"

#include "column/serde.h"
#include "core/bounded_executor.h"
#include "core/hierarchy.h"
#include "sampling/biased_reservoir.h"
#include "skyserver/catalog.h"
#include "storage/snapshot.h"
#include "workload/interest_tracker.h"

namespace sciborq {
namespace {

using LayerSpec = ImpressionHierarchy::LayerSpec;

SkyCatalogConfig StreamConfig() {
  SkyCatalogConfig config;
  config.num_rows = 50'000;
  return config;
}

std::vector<LayerSpec> ThreeLayers() {
  return {{"L0", 10'000}, {"L1", 1'000}, {"L2", 100}};
}

TEST(HierarchyTest, MakeValidation) {
  const Schema schema = PhotoObjSchema();
  ImpressionSpec spec;
  EXPECT_FALSE(ImpressionHierarchy::Make(schema, {}, spec).ok());
  EXPECT_FALSE(
      ImpressionHierarchy::Make(schema, {{"a", 100}, {"b", 100}}, spec).ok());
  EXPECT_FALSE(
      ImpressionHierarchy::Make(schema, {{"a", 100}, {"b", 200}}, spec).ok());
  EXPECT_FALSE(ImpressionHierarchy::Make(schema, {{"a", 0}}, spec).ok());
  EXPECT_TRUE(ImpressionHierarchy::Make(schema, ThreeLayers(), spec).ok());
}

TEST(HierarchyTest, RejectsDuplicateLayerNames) {
  const Schema schema = PhotoObjSchema();
  ImpressionSpec spec;
  const auto result = ImpressionHierarchy::Make(
      schema, {{"L0", 10'000}, {"mid", 1'000}, {"L0", 100}}, spec);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  // The offending name is in the message so the caller can fix the spec.
  EXPECT_NE(result.status().message().find("'L0'"), std::string::npos)
      << result.status().message();
}

TEST(HierarchyTest, RejectsReservedLayerNameBase) {
  // "base" would collide with BoundedAnswer::answered_by's base-table
  // sentinel, making an approximate answer look exact.
  ImpressionSpec spec;
  const auto result = ImpressionHierarchy::Make(
      PhotoObjSchema(), {{"base", 10'000}, {"L1", 1'000}}, spec);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(HierarchyTest, LayerSizesAfterIngest) {
  SkyStream stream(StreamConfig(), 1);
  ImpressionSpec spec;
  spec.seed = 1;
  auto h = ImpressionHierarchy::Make(stream.schema(), ThreeLayers(), spec)
               .value();
  ASSERT_TRUE(h.IngestBatch(stream.NextBatch(30'000)).ok());
  EXPECT_EQ(h.num_layers(), 3);
  EXPECT_EQ(h.layer(0).size(), 10'000);
  EXPECT_EQ(h.layer(1).size(), 1'000);
  EXPECT_EQ(h.layer(2).size(), 100);
  EXPECT_EQ(h.population_seen(), 30'000);
  EXPECT_EQ(h.layer(0).name(), "L0");
  EXPECT_EQ(h.layer(2).name(), "L2");
}

TEST(HierarchyTest, SmallStreamsPropagatePartially) {
  SkyStream stream(StreamConfig(), 2);
  ImpressionSpec spec;
  auto h = ImpressionHierarchy::Make(stream.schema(), ThreeLayers(), spec)
               .value();
  ASSERT_TRUE(h.IngestBatch(stream.NextBatch(500)).ok());
  EXPECT_EQ(h.layer(0).size(), 500);
  EXPECT_EQ(h.layer(1).size(), 500);  // capped by parent content
  EXPECT_EQ(h.layer(2).size(), 100);
}

TEST(HierarchyTest, EscalationOrderSmallestFirst) {
  SkyStream stream(StreamConfig(), 3);
  ImpressionSpec spec;
  auto h = ImpressionHierarchy::Make(stream.schema(), ThreeLayers(), spec)
               .value();
  ASSERT_TRUE(h.IngestBatch(stream.NextBatch(20'000)).ok());
  const auto order = h.EscalationOrder();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0]->name(), "L2");
  EXPECT_EQ(order[1]->name(), "L1");
  EXPECT_EQ(order[2]->name(), "L0");
}

TEST(HierarchyTest, DerivedInclusionProbabilitiesCompose) {
  SkyStream stream(StreamConfig(), 4);
  ImpressionSpec spec;
  spec.seed = 4;
  auto h = ImpressionHierarchy::Make(stream.schema(), ThreeLayers(), spec)
               .value();
  ASSERT_TRUE(h.IngestBatch(stream.NextBatch(40'000)).ok());
  // Layer 0: pi = 10000/40000 = 0.25. Layer 1: 0.25 * 1000/10000 = 0.025.
  // Layer 2: 0.025 * 100/1000 = 0.0025.
  EXPECT_DOUBLE_EQ(h.layer(0).InclusionProbability(0), 0.25);
  EXPECT_DOUBLE_EQ(h.layer(1).InclusionProbability(0), 0.025);
  EXPECT_DOUBLE_EQ(h.layer(2).InclusionProbability(0), 0.0025);
}

TEST(HierarchyTest, DerivedRowsComeFromParent) {
  SkyStream stream(StreamConfig(), 5);
  ImpressionSpec spec;
  spec.seed = 5;
  auto h = ImpressionHierarchy::Make(stream.schema(), ThreeLayers(), spec)
               .value();
  ASSERT_TRUE(h.IngestBatch(stream.NextBatch(20'000)).ok());
  // Every objid in L1 must exist in L0 (derivation subsamples the parent).
  std::set<int64_t> parent_ids;
  const Column* l0 = h.layer(0).rows().ColumnByName("objid").value();
  for (int64_t i = 0; i < l0->size(); ++i) parent_ids.insert(l0->GetInt64(i));
  const Column* l1 = h.layer(1).rows().ColumnByName("objid").value();
  for (int64_t i = 0; i < l1->size(); ++i) {
    EXPECT_TRUE(parent_ids.count(l1->GetInt64(i)) > 0);
  }
}

TEST(HierarchyTest, DerivedLayerHasNoDuplicates) {
  SkyStream stream(StreamConfig(), 6);
  ImpressionSpec spec;
  spec.seed = 6;
  auto h = ImpressionHierarchy::Make(stream.schema(), ThreeLayers(), spec)
               .value();
  ASSERT_TRUE(h.IngestBatch(stream.NextBatch(20'000)).ok());
  std::set<int64_t> ids;
  const Column* l1 = h.layer(1).rows().ColumnByName("objid").value();
  for (int64_t i = 0; i < l1->size(); ++i) ids.insert(l1->GetInt64(i));
  EXPECT_EQ(ids.size(), static_cast<size_t>(l1->size()));
}

TEST(HierarchyTest, BiasInheritedByDerivedLayers) {
  SkyStream stream(StreamConfig(), 7);
  InterestTracker tracker =
      InterestTracker::Make({{"ra", 120.0, 3.0, 40}, {"dec", 0.0, 1.5, 40}})
          .value();
  Rng rng(7);
  for (int i = 0; i < 300; ++i) {
    tracker.ObserveValue("ra", rng.Gaussian(150.0, 2.0));
    tracker.ObserveValue("dec", rng.Gaussian(12.0, 1.5));
  }
  ImpressionSpec spec;
  spec.policy = SamplingPolicy::kBiased;
  spec.tracker = &tracker;
  spec.seed = 7;
  // Small layers relative to the stream: bias needs turnover (cnt >> n)
  // before the focal concentration dominates the unconditional initial fill.
  auto h = ImpressionHierarchy::Make(
               stream.schema(), {{"L0", 2000}, {"L1", 400}, {"L2", 50}}, spec)
               .value();
  for (int b = 0; b < 10; ++b) {
    ASSERT_TRUE(h.IngestBatch(stream.NextBatch(10'000)).ok());
  }
  const auto focal_fraction = [](const Impression& imp) {
    const Column* ra = imp.rows().ColumnByName("ra").value();
    int64_t focal = 0;
    for (int64_t i = 0; i < imp.size(); ++i) {
      if (std::abs(ra->GetDouble(i) - 150.0) < 6.0) ++focal;
    }
    return static_cast<double>(focal) / static_cast<double>(imp.size());
  };
  // The smallest layer inherits the parent's concentration (within noise).
  const double f0 = focal_fraction(h.layer(0));
  const double f2 = focal_fraction(h.layer(2));
  EXPECT_GT(f0, 0.2);
  EXPECT_GT(f2, f0 * 0.5);
}

TEST(HierarchyTest, ToStringListsLayers) {
  SkyStream stream(StreamConfig(), 10);
  ImpressionSpec spec;
  auto h = ImpressionHierarchy::Make(stream.schema(), ThreeLayers(), spec)
               .value();
  ASSERT_TRUE(h.IngestBatch(stream.NextBatch(1000)).ok());
  const std::string s = h.ToString();
  EXPECT_NE(s.find("L0"), std::string::npos);
  EXPECT_NE(s.find("L2"), std::string::npos);
}

// ----------------------------------------- column-wise derivation oracle --

/// Row-at-a-time reference for one derived layer: the production partial
/// Fisher-Yates draw over the parent's slots, then one AppendSampledRow per
/// drawn slot's row, with the probabilities pinned afterwards through the
/// state round trip.
Impression ReferenceDerive(const Impression& parent, const LayerSpec& spec,
                           Rng* rng) {
  const int64_t parent_n = parent.size();
  const int64_t child_n = std::min(spec.capacity, parent_n);
  std::vector<int64_t> ids(static_cast<size_t>(parent_n));
  for (int64_t i = 0; i < parent_n; ++i) ids[static_cast<size_t>(i)] = i;
  for (int64_t i = 0; i < child_n; ++i) {
    const int64_t j = i + static_cast<int64_t>(rng->NextBounded(
                              static_cast<uint64_t>(parent_n - i)));
    std::swap(ids[static_cast<size_t>(i)], ids[static_cast<size_t>(j)]);
  }
  ids.resize(static_cast<size_t>(child_n));
  Impression child(spec.name, parent.rows().schema(), spec.capacity,
                   parent.policy());
  const double ratio =
      static_cast<double>(child_n) / static_cast<double>(parent_n);
  std::vector<double> probs;
  for (const int64_t slot : ids) {
    const int64_t row = parent.RowOfSlot(slot);
    child.AppendSampledRow(parent.rows(), row,
                           parent.row_weights()[static_cast<size_t>(row)],
                           parent.source_ids()[static_cast<size_t>(row)]);
    probs.push_back(std::min(1.0, parent.InclusionProbability(row) * ratio));
  }
  ImpressionState state = child.SaveState();
  state.population_seen = parent.population_seen();
  state.population_weight = parent.population_weight();
  state.explicit_probs = std::move(probs);
  return Impression::FromState(std::move(state)).value();
}

/// The derived layers one refresh must produce from the top layer `top`,
/// drawing from `rng`; empty parents yield empty placeholders.
std::vector<Impression> ReferenceRefresh(const Impression& top,
                                         const std::vector<LayerSpec>& specs,
                                         Rng* rng) {
  std::vector<Impression> derived;
  const Impression* parent = &top;
  for (size_t i = 1; i < specs.size(); ++i) {
    if (parent->size() == 0) {
      derived.emplace_back(specs[i].name, parent->rows().schema(),
                           specs[i].capacity, parent->policy());
    } else {
      derived.push_back(ReferenceDerive(*parent, specs[i], rng));
    }
    parent = &derived.back();
  }
  return derived;
}

std::string TableBytes(const Table& t) {
  BinaryWriter w;
  EncodeTable(t, &w);
  return w.Take();
}

template <typename T>
bool SameBits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

bool SameRng(const Rng::State& a, const Rng::State& b) {
  return a.s == b.s && a.has_cached_gaussian == b.has_cached_gaussian &&
         std::memcmp(&a.cached_gaussian, &b.cached_gaussian,
                     sizeof(double)) == 0;
}

void ExpectSameImpression(const Impression& got, const Impression& want) {
  const ImpressionState a = got.SaveState();
  const ImpressionState b = want.SaveState();
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.capacity, b.capacity);
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(TableBytes(a.rows), TableBytes(b.rows)) << a.name << " rows";
  EXPECT_TRUE(SameBits(a.weights, b.weights)) << a.name << " weights";
  EXPECT_EQ(a.source_ids, b.source_ids) << a.name << " source ids";
  EXPECT_TRUE(SameBits(a.explicit_probs, b.explicit_probs))
      << a.name << " pinned probabilities";
  EXPECT_EQ(a.population_seen, b.population_seen);
  EXPECT_EQ(std::memcmp(&a.population_weight, &b.population_weight,
                        sizeof(double)),
            0);
}

/// Feeds `calls` to `h` one ingest call at a time and checks, after each,
/// that the derived layers and the derive RNG equal the row-at-a-time
/// reference of exactly one refresh.
void ExpectDerivationMatchesReference(
    ImpressionHierarchy* h, const std::vector<LayerSpec>& specs,
    const std::vector<std::vector<Table>>& calls) {
  for (size_t c = 0; c < calls.size(); ++c) {
    SCOPED_TRACE("ingest call " + std::to_string(c));
    Rng rng = Rng::FromState(h->SaveState().derive_rng);
    std::vector<const Table*> parts;
    parts.reserve(calls[c].size());
    for (const Table& part : calls[c]) parts.push_back(&part);
    ASSERT_TRUE(h->IngestParts(parts).ok());
    const std::vector<Impression> want =
        ReferenceRefresh(h->layer(0), specs, &rng);
    for (int layer = 1; layer < h->num_layers(); ++layer) {
      ExpectSameImpression(h->layer(layer),
                           want[static_cast<size_t>(layer - 1)]);
    }
    EXPECT_TRUE(SameRng(h->SaveState().derive_rng, rng.SaveState()))
        << "the call must advance the derive RNG by exactly one refresh";
  }
}

std::vector<std::vector<Table>> OneBatchPerCall(SkyStream* stream,
                                                std::vector<int64_t> sizes) {
  std::vector<std::vector<Table>> calls;
  for (const int64_t rows : sizes) {
    calls.push_back({});
    calls.back().push_back(stream->NextBatch(rows));
  }
  return calls;
}

TEST(HierarchyDeriveOracleTest, ColumnWiseMatchesRowWiseOnUniformParent) {
  SkyStream stream(StreamConfig(), 21);
  ImpressionSpec spec;
  spec.seed = 21;
  auto h = ImpressionHierarchy::Make(stream.schema(), ThreeLayers(), spec)
               .value();
  // Partial parents (fill phase) first, then full ones.
  ExpectDerivationMatchesReference(
      &h, ThreeLayers(), OneBatchPerCall(&stream, {0, 60, 700, 5'000, 20'000}));
}

TEST(HierarchyDeriveOracleTest, ColumnWiseMatchesRowWiseOnBiasedParent) {
  SkyStream stream(StreamConfig(), 22);
  InterestTracker tracker =
      InterestTracker::Make({{"ra", 120.0, 3.0, 40}, {"dec", 0.0, 1.5, 40}})
          .value();
  Rng rng(22);
  for (int i = 0; i < 300; ++i) {
    tracker.ObserveValue("ra", rng.Gaussian(150.0, 2.0));
    tracker.ObserveValue("dec", rng.Gaussian(12.0, 1.5));
  }
  ImpressionSpec spec;
  spec.policy = SamplingPolicy::kBiased;
  spec.tracker = &tracker;
  spec.seed = 22;
  const std::vector<LayerSpec> layers = {{"L0", 2000}, {"L1", 400}, {"L2", 50}};
  auto h = ImpressionHierarchy::Make(stream.schema(), layers, spec).value();
  ExpectDerivationMatchesReference(
      &h, layers, OneBatchPerCall(&stream, {1'500, 10'000, 10'000}));
}

// ------------------------------------------------ clustered hierarchy --

/// The builder's biased sampling loop replayed over an Impression without a
/// cluster key: the top layer an unclustered hierarchy would hold.
class UnclusteredBiasedTop {
 public:
  UnclusteredBiasedTop(const Schema& schema, const ImpressionSpec& spec)
      : top_(spec.name, schema, spec.capacity, SamplingPolicy::kBiased),
        sampler_(BiasedReservoirSampler::Make(spec.capacity, spec.seed)
                     .value()),
        tracker_(spec.tracker),
        bound_(spec.tracker->BindColumns(schema)) {}

  void Ingest(const Table& batch) {
    int64_t source_id = top_.population_seen();
    for (int64_t row = 0; row < batch.num_rows(); ++row, ++source_id) {
      const double weight = tracker_->TupleWeight(batch, bound_, row);
      const ReservoirDecision decision = sampler_.Offer(weight);
      if (!decision.accepted) continue;
      if (decision.slot < top_.size()) {
        top_.ReplaceSampledRow(decision.slot, batch, row, weight, source_id);
      } else {
        top_.AppendSampledRow(batch, row, weight, source_id);
      }
    }
    top_.FinishBatch(source_id, sampler_.total_weight(),
                     sampler_.acceptance_curve(), sampler_.curve_interval(),
                     sampler_.accepted_post_fill());
  }

  const Impression& impression() const { return top_; }

 private:
  Impression top_;
  BiasedReservoirSampler sampler_;
  const InterestTracker* tracker_;
  std::vector<int> bound_;
};

std::vector<int64_t> SortedSources(const Impression& layer) {
  std::vector<int64_t> ids = layer.source_ids();
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<QueryResultRow> ByGroupKey(std::vector<QueryResultRow> rows) {
  std::sort(rows.begin(), rows.end(),
            [](const QueryResultRow& a, const QueryResultRow& b) {
              return a.group_key.ToString() < b.group_key.ToString();
            });
  return rows;
}

TEST(ClusteredHierarchyTest, HoldsAndAnswersWhatAnUnclusteredOneDoes) {
  SkyStream stream(StreamConfig(), 41);
  InterestTracker tracker =
      InterestTracker::Make({{"ra", 120.0, 3.0, 40}, {"dec", 0.0, 1.5, 40}})
          .value();
  Rng focal(41);
  for (int i = 0; i < 300; ++i) {
    tracker.ObserveValue("ra", focal.Gaussian(150.0, 2.0));
    tracker.ObserveValue("dec", focal.Gaussian(12.0, 1.5));
  }
  ImpressionSpec spec;
  spec.policy = SamplingPolicy::kBiased;
  spec.tracker = &tracker;
  spec.seed = 41;
  const std::vector<LayerSpec> layers = {
      {"L0", 8'192}, {"L1", 2'048}, {"L2", 512}};
  auto clustered = ImpressionHierarchy::Make(stream.schema(), layers, spec)
                       .value();
  spec.name = layers[0].name;
  spec.capacity = layers[0].capacity;
  UnclusteredBiasedTop top(stream.schema(), spec);
  Rng derive = Rng::FromState(clustered.SaveState().derive_rng);

  std::vector<AggregateQuery> queries;
  for (const auto& [ra, dec, r] : std::vector<std::array<double, 3>>{
           {150.0, 12.0, 3.0}, {151.0, 13.0, 6.0}, {200.0, 30.0, 25.0}}) {
    AggregateQuery q;
    q.aggregates = {{AggKind::kCount, ""},
                    {AggKind::kSum, "r"},
                    {AggKind::kAvg, "redshift"}};
    q.filter = Cone("ra", "dec", ra, dec, r);
    queries.push_back(std::move(q));
  }
  AggregateQuery grouped;
  grouped.aggregates = {{AggKind::kCount, ""}, {AggKind::kAvg, "g"}};
  grouped.group_by = "obj_class";
  queries.push_back(std::move(grouped));

  // Estimates sum the same terms in another order: they agree within this
  // many ulps' worth of relative error, and sample counts agree exactly.
  constexpr double kSummationOrderTolerance = 1e-10;
  for (const int64_t rows : {6'000, 12'000, 12'000}) {
    const Table batch = stream.NextBatch(rows);
    ASSERT_TRUE(clustered.IngestBatch(batch).ok());
    top.Ingest(batch);
    const std::vector<Impression> derived =
        ReferenceRefresh(top.impression(), layers, &derive);
    for (int i = 0; i < clustered.num_layers(); ++i) {
      const Impression& got = clustered.layer(i);
      const Impression& want =
          i == 0 ? top.impression() : derived[static_cast<size_t>(i - 1)];
      const std::string where =
          got.name() + " after " + std::to_string(rows) + " rows";
      ASSERT_EQ(SortedSources(got), SortedSources(want)) << where;
      if (i == 0) {
        EXPECT_NE(got.source_ids(), want.source_ids()) << where;
      }
      for (const AggregateQuery& q : queries) {
        // Groups come in order of first appearance, which is physical.
        const std::vector<QueryResultRow> a =
            ByGroupKey(EstimateOnImpression(got, q, 0.95).value().rows);
        const std::vector<QueryResultRow> b =
            ByGroupKey(EstimateOnImpression(want, q, 0.95).value().rows);
        ASSERT_EQ(a.size(), b.size()) << where;
        for (size_t r = 0; r < a.size(); ++r) {
          EXPECT_EQ(a[r].group_key, b[r].group_key) << where;
          EXPECT_EQ(a[r].input_rows, b[r].input_rows)
              << where << ": " << q.ToString();
          for (size_t s = 0; s < a[r].values.size(); ++s) {
            const double x = a[r].values[s];
            const double y = b[r].values[s];
            EXPECT_LE(std::fabs(x - y),
                      kSummationOrderTolerance * std::fabs(y))
                << where << ": " << q.ToString() << ", aggregate " << s;
          }
        }
      }
    }
  }
}

/// The snapshot codec's bytes of `state`.
std::string HierarchyBytes(HierarchyState state, const Schema& schema) {
  TableSnapshot snap;
  snap.base = Table(schema);
  snap.hierarchy = std::move(state);
  BinaryWriter w;
  EncodeTableSnapshot(snap, &w);
  return w.Take();
}

TEST(ClusteredHierarchyTest, SaveRestoreSaveIsByteIdentical) {
  SkyStream stream(StreamConfig(), 42);
  InterestTracker tracker =
      InterestTracker::Make({{"ra", 120.0, 3.0, 40}, {"dec", 0.0, 1.5, 40}})
          .value();
  Rng focal(42);
  for (int i = 0; i < 300; ++i) {
    tracker.ObserveValue("ra", focal.Gaussian(215.0, 2.0));
    tracker.ObserveValue("dec", focal.Gaussian(40.0, 1.5));
  }
  ImpressionSpec spec;
  spec.policy = SamplingPolicy::kBiased;
  spec.tracker = &tracker;
  spec.seed = 42;
  const std::vector<LayerSpec> layers = {
      {"L0", 4'096}, {"L1", 1'024}, {"L2", 256}};
  auto h = ImpressionHierarchy::Make(stream.schema(), layers, spec).value();
  for (const int64_t rows : {3'000, 10'000, 10'000}) {
    ASSERT_TRUE(h.IngestBatch(stream.NextBatch(rows)).ok());
    const ImpressionHierarchy restored =
        ImpressionHierarchy::Restore(stream.schema(), spec, h.SaveState())
            .value();
    EXPECT_EQ(HierarchyBytes(restored.SaveState(), stream.schema()),
              HierarchyBytes(h.SaveState(), stream.schema()));
    // The restored layers are clustered into the live physical order.
    for (int i = 0; i < h.num_layers(); ++i) {
      EXPECT_EQ(TableBytes(restored.layer(i).rows()),
                TableBytes(h.layer(i).rows()))
          << h.layer(i).name();
      EXPECT_EQ(restored.layer(i).source_ids(), h.layer(i).source_ids());
    }
  }
}

TEST(HierarchyTest, MultiPartIngestRefreshesOnce) {
  // Three parts in one call: the top layer takes them in order, exactly as
  // three one-part calls would, but the derived layers refresh once.
  SkyStream stream(StreamConfig(), 24);
  std::vector<std::vector<Table>> call(1);
  for (const int64_t rows : {4'000, 7'000, 3'000}) {
    call[0].push_back(stream.NextBatch(rows));
  }
  ImpressionSpec spec;
  spec.seed = 24;
  auto multi = ImpressionHierarchy::Make(stream.schema(), ThreeLayers(), spec)
                   .value();
  auto per_part =
      ImpressionHierarchy::Make(stream.schema(), ThreeLayers(), spec).value();
  ExpectDerivationMatchesReference(&multi, ThreeLayers(), call);
  for (const Table& part : call[0]) {
    ASSERT_TRUE(per_part.IngestBatch(part).ok());
  }
  ExpectSameImpression(multi.layer(0), per_part.layer(0));
  EXPECT_FALSE(SameRng(multi.SaveState().derive_rng,
                       per_part.SaveState().derive_rng))
      << "three one-part calls refresh three times";
}

// Sweep: derivation keeps probabilities in (0, 1] for any layer shape.
class HierarchyShapeSweep
    : public ::testing::TestWithParam<std::vector<int64_t>> {};

TEST_P(HierarchyShapeSweep, ProbabilitiesValid) {
  SkyStream stream(StreamConfig(), 11);
  std::vector<LayerSpec> layers;
  int i = 0;
  for (const int64_t cap : GetParam()) {
    layers.push_back({"L" + std::to_string(i++), cap});
  }
  ImpressionSpec spec;
  spec.seed = 11;
  auto h =
      ImpressionHierarchy::Make(stream.schema(), std::move(layers), spec)
          .value();
  ASSERT_TRUE(h.IngestBatch(stream.NextBatch(25'000)).ok());
  for (int layer = 0; layer < h.num_layers(); ++layer) {
    const Impression& imp = h.layer(layer);
    for (int64_t row = 0; row < imp.size(); ++row) {
      const double p = imp.InclusionProbability(row);
      EXPECT_GT(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
    EXPECT_TRUE(imp.Validate().ok());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, HierarchyShapeSweep,
    ::testing::Values(std::vector<int64_t>{20'000},
                      std::vector<int64_t>{20'000, 500},
                      std::vector<int64_t>{20'000, 2000, 200, 20},
                      std::vector<int64_t>{1000, 999, 998}));

}  // namespace
}  // namespace sciborq
