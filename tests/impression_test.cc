#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "util/binio.h"
#include "util/rng.h"

#include "column/encoding/encoding.h"
#include "column/serde.h"
#include "core/bounded_executor.h"
#include "core/hierarchy.h"
#include "core/impression.h"
#include "core/impression_builder.h"
#include "skyserver/catalog.h"
#include "workload/interest_tracker.h"

namespace sciborq {
namespace {

SkyCatalogConfig StreamConfig() {
  SkyCatalogConfig config;
  config.num_rows = 50'000;
  return config;
}

InterestTracker FocalTracker(double ra, double dec) {
  InterestTracker tracker =
      InterestTracker::Make({{"ra", 120.0, 3.0, 40}, {"dec", 0.0, 1.5, 40}})
          .value();
  Rng rng(17);
  for (int i = 0; i < 300; ++i) {
    tracker.ObserveValue("ra", rng.Gaussian(ra, 2.0));
    tracker.ObserveValue("dec", rng.Gaussian(dec, 1.5));
  }
  return tracker;
}

TEST(ImpressionTest, EmptyImpressionBasics) {
  Impression imp("test", PhotoObjSchema(), 100, SamplingPolicy::kUniform);
  EXPECT_EQ(imp.size(), 0);
  EXPECT_EQ(imp.capacity(), 100);
  EXPECT_EQ(imp.name(), "test");
  EXPECT_TRUE(imp.Validate().ok());
  EXPECT_NE(imp.ToString().find("uniform"), std::string::npos);
}

TEST(ImpressionTest, AppendAndReplace) {
  SkyStream stream(StreamConfig(), 1);
  const Table batch = stream.NextBatch(10);
  Impression imp("t", PhotoObjSchema(), 4, SamplingPolicy::kUniform);
  for (int64_t i = 0; i < 4; ++i) imp.AppendSampledRow(batch, i, 1.0, i);
  imp.FinishBatch(10, 0.0);
  EXPECT_EQ(imp.size(), 4);
  imp.ReplaceSampledRow(2, batch, 7, 2.0, 7);
  EXPECT_EQ(imp.rows().GetCell(2, "objid").value().int64(),
            batch.GetCell(7, "objid").value().int64());
  EXPECT_DOUBLE_EQ(imp.row_weights()[2], 2.0);
  EXPECT_EQ(imp.source_ids()[2], 7);
  EXPECT_TRUE(imp.Validate().ok());
}

TEST(ImpressionTest, UniformInclusionProbability) {
  SkyStream stream(StreamConfig(), 2);
  const Table batch = stream.NextBatch(4);
  Impression imp("t", PhotoObjSchema(), 4, SamplingPolicy::kUniform);
  for (int64_t i = 0; i < 4; ++i) imp.AppendSampledRow(batch, i, 1.0, i);
  imp.FinishBatch(4, 0.0);
  EXPECT_DOUBLE_EQ(imp.InclusionProbability(0), 1.0);
  imp.FinishBatch(400, 0.0);
  EXPECT_DOUBLE_EQ(imp.InclusionProbability(0), 0.01);
}

TEST(ImpressionTest, BiasedInclusionProbability) {
  SkyStream stream(StreamConfig(), 3);
  const Table batch = stream.NextBatch(2);
  Impression imp("t", PhotoObjSchema(), 2, SamplingPolicy::kBiased);
  imp.AppendSampledRow(batch, 0, 10.0, 0);
  imp.AppendSampledRow(batch, 1, 1.0, 1);
  imp.FinishBatch(1000, 100.0);
  EXPECT_DOUBLE_EQ(imp.InclusionProbability(0), std::min(1.0, 2 * 10.0 / 100.0));
  EXPECT_DOUBLE_EQ(imp.InclusionProbability(1), 2 * 1.0 / 100.0);
}

TEST(ImpressionTest, CloneIsIndependent) {
  SkyStream stream(StreamConfig(), 5);
  const Table batch = stream.NextBatch(3);
  Impression imp("orig", PhotoObjSchema(), 3, SamplingPolicy::kUniform);
  imp.AppendSampledRow(batch, 0, 1.0, 0);
  imp.FinishBatch(3, 0.0);
  Impression copy = imp.Clone("copy");
  EXPECT_EQ(copy.name(), "copy");
  imp.ReplaceSampledRow(0, batch, 2, 1.0, 2);
  EXPECT_NE(copy.rows().GetCell(0, "objid").value().int64(),
            imp.rows().GetCell(0, "objid").value().int64());
}

// ------------------------------------------------------------- Builder ----

TEST(ImpressionBuilderTest, SpecValidation) {
  const Schema schema = PhotoObjSchema();
  ImpressionSpec spec;
  spec.capacity = 0;
  EXPECT_FALSE(ImpressionBuilder::Make(schema, spec).ok());
  spec.capacity = 10;
  spec.policy = SamplingPolicy::kLastSeen;
  EXPECT_FALSE(ImpressionBuilder::Make(schema, spec).ok());  // no D
  spec.policy = SamplingPolicy::kBiased;
  EXPECT_FALSE(ImpressionBuilder::Make(schema, spec).ok());  // no tracker
}

TEST(ImpressionBuilderTest, SchemaMismatchRejected) {
  ImpressionSpec spec;
  spec.capacity = 10;
  auto builder = ImpressionBuilder::Make(PhotoObjSchema(), spec).value();
  Table other{Schema({Field{"x", DataType::kDouble, false}})};
  other.AppendNumericRow({1.0});
  EXPECT_FALSE(builder.IngestBatch(other).ok());
}

TEST(ImpressionBuilderTest, UniformKeepsCapacityAndPopulation) {
  SkyStream stream(StreamConfig(), 6);
  ImpressionSpec spec;
  spec.capacity = 500;
  spec.seed = 6;
  auto builder = ImpressionBuilder::Make(stream.schema(), spec).value();
  for (int b = 0; b < 5; ++b) {
    ASSERT_TRUE(builder.IngestBatch(stream.NextBatch(2000)).ok());
  }
  const Impression& imp = builder.impression();
  EXPECT_EQ(imp.size(), 500);
  EXPECT_EQ(imp.population_seen(), 10'000);
  EXPECT_TRUE(imp.Validate().ok());
  EXPECT_DOUBLE_EQ(imp.InclusionProbability(0), 0.05);
}

TEST(ImpressionBuilderTest, UniformSampleIsRepresentative) {
  SkyStream stream(StreamConfig(), 7);
  ImpressionSpec spec;
  spec.capacity = 5000;
  spec.seed = 7;
  auto builder = ImpressionBuilder::Make(stream.schema(), spec).value();
  const Table batch = stream.NextBatch(50'000);
  ASSERT_TRUE(builder.IngestBatch(batch).ok());
  // Compare mean ra between base and sample.
  const Column* base_ra = batch.ColumnByName("ra").value();
  const Column* samp_ra = builder.impression().rows().ColumnByName("ra").value();
  double base_mean = 0.0;
  for (int64_t i = 0; i < base_ra->size(); ++i) base_mean += base_ra->GetDouble(i);
  base_mean /= static_cast<double>(base_ra->size());
  double samp_mean = 0.0;
  for (int64_t i = 0; i < samp_ra->size(); ++i) samp_mean += samp_ra->GetDouble(i);
  samp_mean /= static_cast<double>(samp_ra->size());
  EXPECT_NEAR(samp_mean, base_mean, 1.5);
}

TEST(ImpressionBuilderTest, BiasedConcentratesOnFocalPoint) {
  SkyStream stream(StreamConfig(), 8);
  InterestTracker tracker = FocalTracker(150.0, 12.0);
  ImpressionSpec spec;
  spec.capacity = 2000;
  spec.policy = SamplingPolicy::kBiased;
  spec.tracker = &tracker;
  spec.seed = 8;
  auto biased = ImpressionBuilder::Make(stream.schema(), spec).value();
  ImpressionSpec uspec;
  uspec.capacity = 2000;
  uspec.seed = 8;
  auto uniform = ImpressionBuilder::Make(stream.schema(), uspec).value();

  for (int b = 0; b < 5; ++b) {
    const Table batch = stream.NextBatch(10'000);
    ASSERT_TRUE(biased.IngestBatch(batch).ok());
    ASSERT_TRUE(uniform.IngestBatch(batch).ok());
  }
  const auto focal_fraction = [](const Impression& imp) {
    const Column* ra = imp.rows().ColumnByName("ra").value();
    const Column* dec = imp.rows().ColumnByName("dec").value();
    int64_t focal = 0;
    for (int64_t i = 0; i < imp.size(); ++i) {
      if (std::abs(ra->GetDouble(i) - 150.0) < 6.0 &&
          std::abs(dec->GetDouble(i) - 12.0) < 4.5) {
        ++focal;
      }
    }
    return static_cast<double>(focal) / static_cast<double>(imp.size());
  };
  const double f_biased = focal_fraction(biased.impression());
  const double f_uniform = focal_fraction(uniform.impression());
  EXPECT_GT(f_biased, 3.0 * f_uniform);
}

TEST(ImpressionBuilderTest, BiasedTracksPopulationWeight) {
  SkyStream stream(StreamConfig(), 9);
  InterestTracker tracker = FocalTracker(150.0, 12.0);
  ImpressionSpec spec;
  spec.capacity = 100;
  spec.policy = SamplingPolicy::kBiased;
  spec.tracker = &tracker;
  auto builder = ImpressionBuilder::Make(stream.schema(), spec).value();
  ASSERT_TRUE(builder.IngestBatch(stream.NextBatch(5000)).ok());
  EXPECT_GT(builder.impression().population_weight(), 0.0);
  EXPECT_EQ(builder.impression().population_seen(), 5000);
}

TEST(ImpressionBuilderTest, LastSeenFavoursRecentRows) {
  SkyStream stream(StreamConfig(), 10);
  ImpressionSpec spec;
  spec.capacity = 500;
  spec.policy = SamplingPolicy::kLastSeen;
  spec.expected_ingest = 5000;
  spec.seed = 10;
  auto builder = ImpressionBuilder::Make(stream.schema(), spec).value();
  for (int b = 0; b < 10; ++b) {
    ASSERT_TRUE(builder.IngestBatch(stream.NextBatch(5000)).ok());
  }
  const Impression& imp = builder.impression();
  int64_t recent = 0;
  for (const int64_t src : imp.source_ids()) {
    if (src >= 40'000) ++recent;
  }
  // Last 20% of a 50k stream should dominate the sample.
  EXPECT_GT(static_cast<double>(recent) / imp.size(), 0.5);
}

TEST(ImpressionBuilderTest, SnapshotIsStable) {
  SkyStream stream(StreamConfig(), 11);
  ImpressionSpec spec;
  spec.capacity = 50;
  auto builder = ImpressionBuilder::Make(stream.schema(), spec).value();
  ASSERT_TRUE(builder.IngestBatch(stream.NextBatch(1000)).ok());
  const Impression snap = builder.Snapshot("snap");
  const int64_t snap_first = snap.rows().GetCell(0, "objid").value().int64();
  ASSERT_TRUE(builder.IngestBatch(stream.NextBatch(20'000)).ok());
  EXPECT_EQ(snap.rows().GetCell(0, "objid").value().int64(), snap_first);
  EXPECT_EQ(snap.population_seen(), 1000);
}

// ------------------------------------------------- π stays in sync -------

/// Cumulative post-fill acceptances after `position` offers, interpolated
/// from a saved acceptance curve: the model, written out from its
/// definition in core/impression.h.
double ModelAcceptancesAt(const ImpressionState& s, double position) {
  if (s.acceptance_curve.empty()) {
    const double span = static_cast<double>(s.population_seen - s.capacity);
    if (span <= 0.0) return 0.0;
    const double frac = std::clamp(
        (position - static_cast<double>(s.capacity)) / span, 0.0, 1.0);
    return frac * static_cast<double>(s.total_accepted);
  }
  const auto interval = static_cast<double>(s.curve_interval);
  const double idx = position / interval;
  if (idx <= 1.0) return idx * static_cast<double>(s.acceptance_curve.front());
  const auto k = static_cast<size_t>(idx - 1.0);
  if (k + 1 >= s.acceptance_curve.size()) {
    const double last_pos =
        static_cast<double>(s.acceptance_curve.size()) * interval;
    const double span = static_cast<double>(s.population_seen) - last_pos;
    const auto last_val = static_cast<double>(s.acceptance_curve.back());
    if (span <= 0.0) return last_val;
    const double frac = std::clamp((position - last_pos) / span, 0.0, 1.0);
    return last_val + frac * (static_cast<double>(s.total_accepted) - last_val);
  }
  const auto lo = static_cast<double>(s.acceptance_curve[k]);
  const auto hi = static_cast<double>(s.acceptance_curve[k + 1]);
  return lo + (idx - 1.0 - static_cast<double>(k)) * (hi - lo);
}

/// π of row `row` recomputed from saved state alone: what a lookup must
/// return after every ingest call and every copy or restore.
double ModelProbability(const ImpressionState& s, int64_t row) {
  const auto r = static_cast<size_t>(row);
  if (!s.explicit_probs.empty()) return s.explicit_probs[r];
  const auto n = static_cast<double>(s.rows.num_rows());
  const auto cnt = static_cast<double>(s.population_seen);
  switch (s.policy) {
    case SamplingPolicy::kUniform:
      return cnt <= n ? 1.0 : n / cnt;
    case SamplingPolicy::kLastSeen: {
      if (s.expected_ingest <= 0) return cnt <= n ? 1.0 : n / cnt;
      const double window = n * static_cast<double>(s.expected_ingest) /
                            static_cast<double>(s.capacity);
      const double effective = std::min(cnt, window);
      return effective <= n ? 1.0 : n / effective;
    }
    case SamplingPolicy::kBiased: {
      if (cnt <= n || s.population_weight <= 0.0) return 1.0;
      const double w = s.weights[r];
      if (!(w > 0.0)) return 1.0 / cnt;
      if (s.curve_interval <= 0) return std::min(1.0, n * w / s.population_weight);
      const auto t = static_cast<double>(s.source_ids[r] + 1);
      const auto n_cap = static_cast<double>(s.capacity);
      const double accept = t <= n_cap ? 1.0 : std::min(1.0, n_cap * w / t);
      const double later = std::max(
          0.0, static_cast<double>(s.total_accepted) - ModelAcceptancesAt(s, t));
      return std::clamp(accept * std::exp(-later / n_cap), 1e-12, 1.0);
    }
  }
  return 1.0;
}

void ExpectProbabilitiesMatchModel(const Impression& imp,
                                   const std::string& where) {
  // The state lists rows by slot; a clustered impression holds them in
  // another physical order.
  const ImpressionState state = imp.SaveState();
  for (int64_t slot = 0; slot < imp.size(); ++slot) {
    ASSERT_EQ(imp.InclusionProbability(imp.RowOfSlot(slot)),
              ModelProbability(state, slot))
        << where << ", slot " << slot;
  }
}

/// The live impression, a Clone, a SaveState→FromState round trip and a
/// builder restored through RestoreState all agree with the model.
void ExpectInSyncEverywhere(const ImpressionBuilder& builder,
                            const Schema& schema, const std::string& where) {
  const Impression& live = builder.impression();
  ExpectProbabilitiesMatchModel(live, where + " live");
  ExpectProbabilitiesMatchModel(live.Clone("clone"), where + " clone");
  ExpectProbabilitiesMatchModel(Impression::FromState(live.SaveState()).value(),
                                where + " FromState");
  ImpressionBuilder restored =
      ImpressionBuilder::Make(schema, builder.spec()).value();
  ASSERT_TRUE(restored.RestoreState(builder.SaveState()).ok());
  ExpectProbabilitiesMatchModel(restored.impression(), where + " RestoreState");
  for (int64_t row = 0; row < live.size(); ++row) {
    ASSERT_EQ(restored.impression().InclusionProbability(row),
              live.InclusionProbability(row))
        << where << ", row " << row;
  }
}

TEST(InclusionProbabilitySyncTest, TopLayersMatchTheModelAfterEveryCall) {
  InterestTracker tracker = FocalTracker(150.0, 12.0);
  for (const SamplingPolicy policy :
       {SamplingPolicy::kUniform, SamplingPolicy::kLastSeen,
        SamplingPolicy::kBiased}) {
    SCOPED_TRACE(std::string(SamplingPolicyToString(policy)));
    SkyStream stream(StreamConfig(), 12);
    ImpressionSpec spec;
    spec.capacity = 300;
    spec.policy = policy;
    spec.seed = 12;
    spec.expected_ingest = 2000;
    spec.tracker = &tracker;
    ImpressionBuilder builder =
        ImpressionBuilder::Make(stream.schema(), spec).value();
    // Before the fill, an empty call, then past several acceptance-curve
    // checkpoints (one every 4096 offers).
    int calls = 0;
    for (const int64_t rows : {150, 0, 2000, 5000, 3000}) {
      ASSERT_TRUE(builder.IngestBatch(stream.NextBatch(rows)).ok());
      ExpectInSyncEverywhere(builder, stream.schema(),
                             "after call " + std::to_string(++calls));
    }
    // A call of several parts refreshes π once, at its end.
    const Table a = stream.NextBatch(700);
    const Table b = stream.NextBatch(900);
    ASSERT_TRUE(builder.IngestParts({&a, &b}).ok());
    ExpectInSyncEverywhere(builder, stream.schema(), "after a two-part call");
    EXPECT_EQ(builder.impression().population_seen(), 11'750);
    if (policy == SamplingPolicy::kBiased) {
      EXPECT_TRUE(builder.impression().has_acceptance_model());
    }
    // The top layer's π is recomputed from state, never persisted.
    EXPECT_TRUE(builder.impression().SaveState().explicit_probs.empty());
  }
}

TEST(InclusionProbabilitySyncTest, RejectedCallLeavesTheImpressionUntouched) {
  SkyStream stream(StreamConfig(), 13);
  ImpressionSpec spec;
  spec.capacity = 100;
  ImpressionBuilder builder =
      ImpressionBuilder::Make(stream.schema(), spec).value();
  ASSERT_TRUE(builder.IngestBatch(stream.NextBatch(400)).ok());
  const double before = builder.impression().InclusionProbability(0);
  const Table good = stream.NextBatch(400);
  Table other{Schema({Field{"x", DataType::kDouble, false}})};
  other.AppendNumericRow({1.0});
  EXPECT_FALSE(builder.IngestParts({&good, &other}).ok());
  EXPECT_EQ(builder.impression().population_seen(), 400);
  EXPECT_EQ(builder.impression().InclusionProbability(0), before);
  ExpectInSyncEverywhere(builder, stream.schema(), "after a rejected call");
}

TEST(InclusionProbabilitySyncTest, DerivedLayersKeepTheirPinnedProbabilities) {
  InterestTracker tracker = FocalTracker(150.0, 12.0);
  for (const SamplingPolicy policy :
       {SamplingPolicy::kUniform, SamplingPolicy::kBiased}) {
    SCOPED_TRACE(std::string(SamplingPolicyToString(policy)));
    SkyStream stream(StreamConfig(), 14);
    ImpressionSpec spec;
    spec.policy = policy;
    spec.seed = 14;
    spec.tracker = &tracker;
    ImpressionHierarchy h =
        ImpressionHierarchy::Make(stream.schema(),
                                  {{"l0", 400}, {"l1", 100}, {"l2", 20}}, spec)
            .value();
    for (const int64_t rows : {250, 3000, 6000}) {
      ASSERT_TRUE(h.IngestBatch(stream.NextBatch(rows)).ok());
      ImpressionHierarchy restored =
          ImpressionHierarchy::Restore(stream.schema(), spec, h.SaveState())
              .value();
      for (int i = 0; i < h.num_layers(); ++i) {
        const Impression& layer = h.layer(i);
        const std::string where =
            layer.name() + " after " + std::to_string(rows) + " rows";
        // Derived layers persist their π; the top layer recomputes its own.
        EXPECT_EQ(layer.SaveState().explicit_probs.empty(), i == 0) << where;
        ExpectProbabilitiesMatchModel(layer, where);
        ExpectProbabilitiesMatchModel(layer.Clone("clone"), where + " clone");
        ExpectProbabilitiesMatchModel(
            Impression::FromState(layer.SaveState()).value(),
            where + " FromState");
        ExpectProbabilitiesMatchModel(restored.layer(i), where + " Restore");
        for (int64_t row = 0; row < layer.size(); ++row) {
          ASSERT_EQ(restored.layer(i).InclusionProbability(row),
                    layer.InclusionProbability(row))
              << where << ", row " << row;
        }
      }
    }
  }
}

// ----------------------------------------------- clustered impressions --

std::string TableBytes(const Table& t) {
  BinaryWriter w;
  EncodeTable(t, &w);
  return w.Take();
}

/// The same physical rows, weights and π as `layer`, but no cluster key and
/// so no zone maps: the unpruned scan a pruned one must equal.
Impression UnprunedTwin(const Impression& layer) {
  SelectionVector all(static_cast<size_t>(layer.size()));
  std::iota(all.begin(), all.end(), 0);
  ImpressionState state;
  state.name = layer.name();
  state.capacity = layer.capacity();
  state.policy = layer.policy();
  state.rows = layer.rows().TakeRows(all);
  state.weights = layer.row_weights();
  state.source_ids = layer.source_ids();
  for (int64_t row = 0; row < layer.size(); ++row) {
    state.explicit_probs.push_back(layer.InclusionProbability(row));
  }
  state.population_seen = layer.population_seen();
  state.population_weight = layer.population_weight();
  return Impression::FromState(std::move(state)).value();
}

/// Cones on and off the focal point, a range, and no filter at all.
std::vector<AggregateQuery> ScanQueries() {
  std::vector<AggregateQuery> queries;
  for (const auto& [ra, dec, r] : std::vector<std::array<double, 3>>{
           {150.0, 12.0, 3.0}, {150.0, 12.0, 6.0}, {152.0, 10.0, 1.0},
           {215.0, 40.0, 6.0}, {180.0, 30.0, 40.0}}) {
    AggregateQuery q;
    q.aggregates = {{AggKind::kCount, ""}, {AggKind::kSum, "r"},
                    {AggKind::kAvg, "redshift"}, {AggKind::kMax, "g"}};
    q.filter = Cone("ra", "dec", ra, dec, r);
    queries.push_back(std::move(q));
  }
  AggregateQuery band;
  band.aggregates = {{AggKind::kAvg, "r"}};
  band.filter = Between("dec", 10.0, 14.0);
  band.group_by = "obj_class";
  queries.push_back(std::move(band));
  AggregateQuery all;
  all.aggregates = {{AggKind::kCount, ""}, {AggKind::kAvg, "r"}};
  queries.push_back(std::move(all));
  return queries;
}

void ExpectSameAnswer(const BoundedAnswer& a, const BoundedAnswer& b,
                      const std::string& where) {
  ASSERT_EQ(a.rows.size(), b.rows.size()) << where;
  for (size_t r = 0; r < a.rows.size(); ++r) {
    EXPECT_EQ(a.rows[r].group_key, b.rows[r].group_key) << where;
    EXPECT_EQ(a.rows[r].input_rows, b.rows[r].input_rows) << where;
    EXPECT_EQ(a.rows[r].population, b.rows[r].population) << where;
    ASSERT_EQ(a.estimates[r].size(), b.estimates[r].size()) << where;
    for (size_t s = 0; s < a.estimates[r].size(); ++s) {
      EXPECT_EQ(a.estimates[r][s].estimate, b.estimates[r][s].estimate)
          << where << ", aggregate " << s;
      EXPECT_EQ(a.estimates[r][s].std_error, b.estimates[r][s].std_error)
          << where << ", aggregate " << s;
    }
  }
}

int RaColumn() { return PhotoObjSchema().FieldIndex("ra").value(); }

TEST(ClusteredImpressionTest, TrackedAttributesClusterTheLayer) {
  InterestTracker tracker = FocalTracker(150.0, 12.0);
  SkyStream stream(StreamConfig(), 31);
  ImpressionSpec spec;
  spec.capacity = 8 * kLayerZoneRows;
  spec.policy = SamplingPolicy::kBiased;
  spec.seed = 31;
  spec.tracker = &tracker;
  ImpressionBuilder builder =
      ImpressionBuilder::Make(stream.schema(), spec).value();
  ASSERT_TRUE(builder.IngestBatch(stream.NextBatch(30'000)).ok());
  const Impression& layer = builder.impression();
  ASSERT_EQ(layer.size(), spec.capacity);
  ASSERT_EQ(layer.cluster_key().attributes.size(), 2u);
  EXPECT_EQ(layer.cluster_key().attributes[0].domain_min, 120.0);
  EXPECT_EQ(layer.cluster_key().attributes[0].domain_max, 240.0);

  // RowOfSlot is a permutation, and SaveState lists the rows by slot.
  std::vector<int64_t> rows;
  for (int64_t slot = 0; slot < layer.size(); ++slot) {
    rows.push_back(layer.RowOfSlot(slot));
  }
  const ImpressionState state = layer.SaveState();
  EXPECT_EQ(TableBytes(state.rows), TableBytes(layer.rows().TakeRows(rows)));
  std::sort(rows.begin(), rows.end());
  for (int64_t row = 0; row < layer.size(); ++row) {
    ASSERT_EQ(rows[static_cast<size_t>(row)], row);
  }

  // Only the key columns carry zone maps, one per kLayerZoneRows rows, and
  // they are tighter than the same rows' zones in slot order.
  const EncodedColumn* ra = layer.rows().column(RaColumn()).encoding();
  ASSERT_NE(ra, nullptr);
  EXPECT_EQ(ra->morsel_rows, kLayerZoneRows);
  EXPECT_EQ(ra->covered_rows(), layer.size());
  EXPECT_EQ(layer.rows().column(0).encoding(), nullptr);
  const auto mean_span = [](const Column& col) {
    double span = 0.0;
    const int64_t zones = col.size() / kLayerZoneRows;
    for (int64_t z = 0; z < zones; ++z) {
      const EncodedMorsel m = EncodeMorsel(col, z * kLayerZoneRows,
                                           (z + 1) * kLayerZoneRows);
      span += m.zone.max - m.zone.min;
    }
    return span / static_cast<double>(zones);
  };
  EXPECT_LT(mean_span(layer.rows().column(RaColumn())),
            0.5 * mean_span(state.rows.column(RaColumn())));
}

TEST(ClusteredImpressionTest, PrunedScanEqualsUnprunedScanAcrossIngests) {
  InterestTracker tracker = FocalTracker(150.0, 12.0);
  SkyStream stream(StreamConfig(), 32);
  ImpressionSpec spec;
  spec.capacity = 8 * kLayerZoneRows;
  spec.policy = SamplingPolicy::kBiased;
  spec.seed = 32;
  spec.tracker = &tracker;
  ImpressionBuilder builder =
      ImpressionBuilder::Make(stream.schema(), spec).value();
  std::vector<int64_t> previous_sources;
  bool pruned = false;
  // A partial fill, the fill, then calls that replace slots in place.
  for (const int64_t rows : {5'000, 10'000, 12'000, 9'000}) {
    ASSERT_TRUE(builder.IngestBatch(stream.NextBatch(rows)).ok());
    const Impression& layer = builder.impression();
    const Impression twin = UnprunedTwin(layer);
    const std::string where = "after " + std::to_string(rows) + " rows";
    for (const AggregateQuery& q : ScanQueries()) {
      const std::string what = where + ": " + q.ToString();
      int64_t scanned = -1;
      int64_t twin_scanned = -1;
      const SelectionVector sel =
          SelectMatching(layer.rows(), q, nullptr, &scanned).value();
      EXPECT_EQ(sel, SelectMatching(twin.rows(), q, nullptr, &twin_scanned)
                         .value())
          << what;
      EXPECT_EQ(twin_scanned, layer.size()) << what;
      EXPECT_LE(scanned, layer.size()) << what;
      pruned = pruned || scanned < layer.size();
      ExpectSameAnswer(EstimateOnImpression(layer, q, 0.95).value(),
                       EstimateOnImpression(twin, q, 0.95).value(), what);
    }
    if (!previous_sources.empty()) {
      std::vector<int64_t> now = layer.SaveState().source_ids;
      EXPECT_NE(now, previous_sources) << where << ": no slot was replaced";
    }
    previous_sources = layer.SaveState().source_ids;
  }
  EXPECT_TRUE(pruned);
}

TEST(ClusteredImpressionTest, ReplacingARowDropsTheZoneMapsUntilTheCallEnds) {
  SkyStream stream(StreamConfig(), 33);
  const Table batch = stream.NextBatch(3 * kLayerZoneRows);
  const int dec = PhotoObjSchema().FieldIndex("dec").value();
  ClusterKey key;
  key.attributes = {{RaColumn(), 120.0, 240.0}, {dec, 0.0, 60.0}};
  const int64_t n = 2 * kLayerZoneRows;
  Impression imp("t", PhotoObjSchema(), n, SamplingPolicy::kUniform, key);
  for (int64_t row = 0; row < n; ++row) imp.AppendSampledRow(batch, row, 1.0, row);
  imp.FinishBatch(n, 0.0);
  ASSERT_NE(imp.rows().column(RaColumn()).encoding(), nullptr);

  // Each replacement moves a row to wherever its new values fall; a cone
  // around the new values must find it before and after the re-sort.
  for (int64_t i = 0; i < 200; ++i) {
    const int64_t slot = (i * 37) % n;
    const int64_t src = n + i;
    imp.ReplaceSampledRow(slot, batch, src, 1.0, src);
    EXPECT_EQ(imp.rows().column(RaColumn()).encoding(), nullptr);
    const double ra = batch.column(RaColumn()).GetDouble(src);
    const double de = batch.column(dec).GetDouble(src);
    const PredicatePtr cone = Cone("ra", "dec", ra, de, 1e-9);
    const SelectionVector hit = SelectAll(imp.rows(), *cone).value();
    EXPECT_NE(std::find(hit.begin(), hit.end(), imp.RowOfSlot(slot)),
              hit.end());
  }
  imp.FinishBatch(n + 200, 0.0);
  ASSERT_NE(imp.rows().column(RaColumn()).encoding(), nullptr);
  for (int64_t i = 0; i < 200; ++i) {
    const int64_t slot = (i * 37) % n;
    const int64_t src = imp.SaveState().source_ids[static_cast<size_t>(slot)];
    const PredicatePtr cone =
        Cone("ra", "dec", batch.column(RaColumn()).GetDouble(src),
             batch.column(dec).GetDouble(src), 1e-9);
    const SelectionVector hit = SelectAll(imp.rows(), *cone).value();
    EXPECT_NE(std::find(hit.begin(), hit.end(), imp.RowOfSlot(slot)),
              hit.end());
  }
}

TEST(ClusteredImpressionTest, OrderIsAFunctionOfTheSampleAlone) {
  InterestTracker tracker = FocalTracker(215.0, 40.0);
  SkyStream stream(StreamConfig(), 34);
  ImpressionSpec spec;
  spec.capacity = 3'000;
  spec.policy = SamplingPolicy::kBiased;
  spec.seed = 34;
  spec.tracker = &tracker;
  ImpressionBuilder builder =
      ImpressionBuilder::Make(stream.schema(), spec).value();
  for (const int64_t rows : {2'000, 8'000, 8'000}) {
    ASSERT_TRUE(builder.IngestBatch(stream.NextBatch(rows)).ok());
    const Impression& live = builder.impression();
    // Clustered live across ingest calls, or clustered once from the saved
    // slots: the same physical rows, and the same saved state again.
    const Impression restored =
        Impression::FromState(live.SaveState(), live.cluster_key()).value();
    EXPECT_EQ(TableBytes(restored.rows()), TableBytes(live.rows()));
    EXPECT_EQ(restored.source_ids(), live.source_ids());
    EXPECT_EQ(TableBytes(restored.SaveState().rows),
              TableBytes(live.SaveState().rows));
    for (int64_t row = 0; row < live.size(); ++row) {
      ASSERT_EQ(restored.InclusionProbability(row),
                live.InclusionProbability(row));
    }
  }
}

}  // namespace
}  // namespace sciborq
