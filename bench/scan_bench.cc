// Compressed + vectorized scan benchmarks: what the per-morsel encodings
// (RLE / frame-of-reference / dictionary) and zone maps buy on scan-heavy
// work, and proof that they change nothing about the answers.
//
//   footprint  — serialized bytes/row of the v2 encoded page vs the v1 plain
//                page, per column and for the whole table. Expectation: the
//                compression-friendly columns (sorted ints, run-y ints,
//                low-cardinality strings) shrink >= 2x.
//   scan       — SelectAll throughput (GB/s of plain-equivalent column data)
//                over the encoded table vs the sidecar-free scalar scan, for
//                a battery of predicates from skip-everything to scan-
//                everything. Expectation: encoded >= ~0.9x scalar on the
//                worst case and far above it when zone maps prune.
//   pruning    — fraction of complete morsels skipped outright for a
//                selective predicate (sciborq_morsels_skipped_total delta).
//   layer      — a biased 64Ki-row impression over the 600k-row sky,
//                clustered on its tracked ra/dec, under a stream of focal
//                cones: the zone-map skip ratio and µs per cone (select +
//                estimate) against the same rows scanned without zone maps.
//
// Exits non-zero if any encoded answer — selection or aggregate — differs
// bit-for-bit from the scalar oracle, if a pruned layer answer differs from
// its unpruned scan, or if a footprint/throughput/skip bar is missed.
// BENCH_JSON lines are grep-able from CI logs.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "column/encoding/encoding.h"
#include "column/serde.h"
#include "column/table.h"
#include "core/bounded_executor.h"
#include "core/impression_builder.h"
#include "exec/expr.h"
#include "exec/query.h"
#include "obs/metrics.h"
#include "skyserver/catalog.h"
#include "util/binio.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"
#include "workload/generator.h"
#include "workload/interest_tracker.h"

using namespace sciborq;
using sciborq::bench::Header;
using sciborq::bench::JsonLine;
using sciborq::bench::Unwrap;

namespace {

constexpr int64_t kRows = 512 * 1024;  // 32 complete morsels
constexpr int kScanReps = 5;

/// Scan-bench table: one column per encoding regime.
///   id      int64  0..n sorted        -> frame-of-reference bit-packing
///   flag    int64  4096-row plateaus  -> run-length
///   station string 8 distinct values  -> dictionary
///   val     double uniform random     -> plain (zone maps only)
Table MakeScanTable() {
  const std::vector<std::string> stations = {"apo", "lick", "keck", "palomar",
                                             "gemini", "vlt", "subaru", "lbt"};
  Rng rng(1905);
  Column id(DataType::kInt64), flag(DataType::kInt64), val(DataType::kDouble),
      station(DataType::kString);
  for (Column* c : {&id, &flag, &val, &station}) c->Reserve(kRows);
  for (int64_t i = 0; i < kRows; ++i) {
    id.AppendInt64(i);
    flag.AppendInt64(i / 4096);
    val.AppendDouble(rng.NextDouble() * 100.0);
    station.AppendString(stations[static_cast<size_t>(rng.NextUint64() % 8)]);
  }
  return Unwrap(Table::FromColumns(
      Schema({Field{"id", DataType::kInt64, false},
              Field{"flag", DataType::kInt64, false},
              Field{"val", DataType::kDouble, false},
              Field{"station", DataType::kString, false}}),
      {std::move(id), std::move(flag), std::move(val), std::move(station)}));
}

int64_t EncodedBytes(const Column& col, bool encoded_page) {
  BinaryWriter w;
  if (encoded_page) {
    EncodeColumnEncoded(col, &w);
  } else {
    EncodeColumn(col, &w);
  }
  return static_cast<int64_t>(w.buffer().size());
}

struct ScanCase {
  const char* name;
  PredicatePtr pred;
  /// Plain-equivalent bytes a scalar scan must touch (the filtered column's
  /// storage), the numerator of the GB/s figure for both paths.
  int64_t scanned_bytes;
};

std::vector<ScanCase> MakeScanCases(int64_t station_bytes) {
  std::vector<ScanCase> cases;
  const int64_t num_bytes = kRows * 8;
  // Zone maps kill every morsel: the headline pruning case.
  cases.push_back({"skip_all", Lt("val", Value(-1.0)), num_bytes});
  // Zone maps blanket-accept every morsel.
  cases.push_back({"match_all", Ge("val", Value(-1.0)), num_bytes});
  // Selective range on the sorted column: prunes all but one morsel, scans
  // the survivor through the FOR kernel path.
  cases.push_back({"id_band", Between("id", 100'000.0, 110'000.0), num_bytes});
  // Run-length domain scan: one comparison per 4096-row run.
  cases.push_back({"flag_eq", Eq("flag", Value(int64_t{64})), num_bytes});
  // Dictionary domain scan: 8 comparisons per morsel plus a code walk.
  cases.push_back({"station_eq", Eq("station", Value("keck")), station_bytes});
  // No pruning possible (uniform doubles, mid-range literal): the honest
  // kernel-vs-scalar case.
  cases.push_back({"val_half", Lt("val", Value(50.0)), num_bytes});
  return cases;
}

double BestScanSeconds(const Table& t, const Predicate& pred) {
  double best = 1e100;
  for (int rep = 0; rep < kScanReps; ++rep) {
    Stopwatch watch;
    const SelectionVector sel = Unwrap(SelectAll(t, pred));
    const double s = watch.ElapsedSeconds();
    if (s < best) best = s;
    if (!sel.empty() && sel.front() < 0) std::abort();  // keep the scan alive
  }
  return best;
}

bool BitIdenticalAggregates(const Table& plain, const Table& encoded,
                            ThreadPool* pool) {
  AggregateQuery q;
  q.aggregates = {{AggKind::kCount, ""},  {AggKind::kSum, "val"},
                  {AggKind::kAvg, "val"}, {AggKind::kMin, "id"},
                  {AggKind::kMax, "id"},  {AggKind::kVariance, "val"}};
  q.filter = Between("id", 50'000.0, 400'000.0);
  const auto a = Unwrap(RunExact(plain, q));
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), pool}) {
    const auto b = Unwrap(RunExact(encoded, q, p));
    if (a.size() != b.size()) return false;
    for (size_t r = 0; r < a.size(); ++r) {
      if (a[r].input_rows != b[r].input_rows) return false;
      if (a[r].values.size() != b[r].values.size()) return false;
      if (std::memcmp(a[r].values.data(), b[r].values.data(),
                      a[r].values.size() * sizeof(double)) != 0) {
        return false;
      }
    }
  }
  return true;
}

/// Least share of a clustered layer's zones the focal-cone stream must
/// skip. The stream's cones (r≈6° around two focal points) skip about 0.85
/// on the layer below; unclustered, the same layer skips none.
constexpr double kMinLayerSkipRatio = 0.7;
constexpr int kLayerCones = 300;

/// The layer's rows, weights and π in the same physical order, without a
/// cluster key and so without zone maps: the unpruned scan.
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
  return Unwrap(Impression::FromState(std::move(state)));
}

bool SameAnswer(const BoundedAnswer& a, const BoundedAnswer& b) {
  if (a.rows.size() != b.rows.size()) return false;
  for (size_t r = 0; r < a.rows.size(); ++r) {
    if (a.rows[r].input_rows != b.rows[r].input_rows ||
        !BitIdentical(a.rows[r].population, b.rows[r].population)) {
      return false;
    }
    for (size_t s = 0; s < a.estimates[r].size(); ++s) {
      const AggregateEstimate& x = a.estimates[r][s];
      const AggregateEstimate& y = b.estimates[r][s];
      if (!BitIdentical(x.estimate, y.estimate) ||
          !BitIdentical(x.std_error, y.std_error)) {
        return false;
      }
    }
  }
  return true;
}

/// Seconds to answer every query off `layer` (select + estimate).
double StreamSeconds(const Impression& layer,
                     const std::vector<AggregateQuery>& queries) {
  Stopwatch watch;
  for (const AggregateQuery& q : queries) {
    if (Unwrap(EstimateOnImpression(layer, q, 0.95)).rows.empty()) {
      std::abort();
    }
  }
  return watch.ElapsedSeconds();
}

/// The layer case: returns the number of pruned-vs-unpruned mismatches and
/// stores the skip ratio in `skip_ratio`.
int LayerCase(double* skip_ratio) {
  const Table sky =
      Unwrap(GenerateSkyCatalog(SkyCatalogConfig(), 20110109)).photo_obj_all;
  ConeWorkloadConfig focal;
  focal.focal_points = {FocalPoint{150.0, 12.0, 0.55, 2.0},
                        FocalPoint{215.0, 40.0, 0.45, 2.0}};
  focal.radius_mean = 6.0;
  focal.radius_sd = 0.5;
  InterestTracker tracker = Unwrap(
      InterestTracker::Make({{"ra", 120.0, 3.0, 40}, {"dec", 0.0, 1.5, 40}}));
  ConeWorkloadGenerator training =
      Unwrap(ConeWorkloadGenerator::Make(focal, 1));
  for (int i = 0; i < 2000; ++i) tracker.ObserveQuery(training.Next());
  ImpressionSpec spec;
  spec.name = "l0";
  spec.capacity = 64 * 1024;
  spec.policy = SamplingPolicy::kBiased;
  spec.seed = 1;
  spec.tracker = &tracker;
  ImpressionBuilder builder =
      Unwrap(ImpressionBuilder::Make(sky.schema(), spec));
  for (int64_t begin = 0; begin < sky.num_rows(); begin += spec.capacity) {
    SelectionVector rows(static_cast<size_t>(
        std::min(sky.num_rows(), begin + spec.capacity) - begin));
    std::iota(rows.begin(), rows.end(), begin);
    if (!builder.IngestBatch(sky.TakeRows(rows)).ok()) std::abort();
  }
  const Impression& layer = builder.impression();
  const Impression twin = UnprunedTwin(layer);

  ConeWorkloadGenerator stream = Unwrap(ConeWorkloadGenerator::Make(focal, 7));
  std::vector<AggregateQuery> queries;
  for (int i = 0; i < kLayerCones; ++i) queries.push_back(stream.Next());

  obs::Counter* skipped = obs::DefaultRegistry()->GetCounter(
      "sciborq_morsels_skipped_total",
      "Scan morsels skipped entirely by zone-map pruning");
  int mismatches = 0;
  const int64_t before = skipped->Value();
  for (const AggregateQuery& q : queries) {
    if (Unwrap(SelectMatching(layer.rows(), q)) !=
            Unwrap(SelectMatching(twin.rows(), q))) {
      std::fprintf(stderr, "FAILED: pruned layer selection differs on %s\n",
                   q.ToString().c_str());
      ++mismatches;
    }
  }
  // Only the clustered layer has zone maps: every skip counted is its own.
  const int64_t zones = layer.size() / kLayerZoneRows * kLayerCones;
  *skip_ratio = static_cast<double>(skipped->Value() - before) /
                static_cast<double>(zones);
  for (const AggregateQuery& q : queries) {
    if (!SameAnswer(Unwrap(EstimateOnImpression(layer, q, 0.95)),
                    Unwrap(EstimateOnImpression(twin, q, 0.95)))) {
      std::fprintf(stderr, "FAILED: pruned layer estimate differs on %s\n",
                   q.ToString().c_str());
      ++mismatches;
    }
  }

  double pruned_s = 1e100;
  double unpruned_s = 1e100;
  for (int rep = 0; rep < kScanReps; ++rep) {
    pruned_s = std::min(pruned_s, StreamSeconds(layer, queries));
    unpruned_s = std::min(unpruned_s, StreamSeconds(twin, queries));
  }
  const double pruned_us = pruned_s / kLayerCones * 1e6;
  const double unpruned_us = unpruned_s / kLayerCones * 1e6;
  std::printf("layer: %lld rows in %lld zones, %d focal cones: %.0f%% of "
              "zones skipped, %.1f us/cone pruned vs %.1f us/cone unpruned "
              "(%.2fx)\n",
              static_cast<long long>(layer.size()),
              static_cast<long long>(layer.size() / kLayerZoneRows),
              kLayerCones, 100.0 * *skip_ratio, pruned_us, unpruned_us,
              unpruned_us / pruned_us);
  JsonLine("scan_layer_pruning")
      .Int("layer_rows", layer.size())
      .Int("zone_rows", kLayerZoneRows)
      .Int("cones", kLayerCones)
      .Num("skip_ratio", *skip_ratio)
      .Num("pruned_us_per_cone", pruned_us)
      .Num("unpruned_us_per_cone", unpruned_us)
      .Flag("bit_identical", mismatches == 0)
      .Emit();
  return mismatches;
}

}  // namespace

int main() {
  Header("scan: compressed columns + zone maps vs the scalar scan");

  const Table plain = MakeScanTable();
  Table encoded = plain;
  encoded.BuildEncoding();
  ThreadPool pool(4);

  // ---- footprint -----------------------------------------------------------
  bool footprint_ok = true;
  double table_plain_bytes = 0;
  double table_encoded_bytes = 0;
  for (int c = 0; c < plain.num_columns(); ++c) {
    const std::string& name = plain.schema().field(c).name;
    const int64_t v1 = EncodedBytes(plain.column(c), false);
    const int64_t v2 = EncodedBytes(plain.column(c), true);
    table_plain_bytes += static_cast<double>(v1);
    table_encoded_bytes += static_cast<double>(v2);
    const double ratio = static_cast<double>(v1) / static_cast<double>(v2);
    const bool friendly = name != "val";
    if (friendly && ratio < 2.0) footprint_ok = false;
    std::printf("footprint %-8s %8.2f B/row plain, %8.2f B/row encoded "
                "(%.1fx)%s\n",
                name.c_str(), static_cast<double>(v1) / kRows,
                static_cast<double>(v2) / kRows, ratio,
                friendly ? " [>=2x gate]" : "");
    JsonLine("scan_footprint")
        .Str("column", name)
        .Num("plain_bytes_per_row", static_cast<double>(v1) / kRows)
        .Num("encoded_bytes_per_row", static_cast<double>(v2) / kRows)
        .Num("compression_ratio", ratio)
        .Flag("gated", friendly)
        .Emit();
  }
  JsonLine("scan_footprint_table")
      .Int("rows", kRows)
      .Num("plain_bytes_per_row", table_plain_bytes / kRows)
      .Num("encoded_bytes_per_row", table_encoded_bytes / kRows)
      .Num("compression_ratio", table_plain_bytes / table_encoded_bytes)
      .Emit();

  // ---- scan throughput + answer equality -----------------------------------
  int mismatches = 0;
  double worst_relative = 1e100;
  for (ScanCase& sc : MakeScanCases(EncodedBytes(plain.column(3), false))) {
    // Equality gate first: serial and 4-thread encoded scans must reproduce
    // the scalar selection exactly.
    const SelectionVector oracle = Unwrap(SelectAll(plain, *sc.pred));
    if (Unwrap(SelectAll(encoded, *sc.pred)) != oracle ||
        Unwrap(SelectAll(encoded, *sc.pred, &pool)) != oracle) {
      std::fprintf(stderr, "FAILED: selection mismatch on %s\n", sc.name);
      ++mismatches;
      continue;
    }
    const double scalar_s = BestScanSeconds(plain, *sc.pred);
    const double encoded_s = BestScanSeconds(encoded, *sc.pred);
    const double gb = static_cast<double>(sc.scanned_bytes) / 1e9;
    const double relative = scalar_s / encoded_s;
    // Only the no-pruning case gates throughput: pruned cases are trivially
    // faster, and tiny absolute times are too noisy to gate individually.
    if (std::string(sc.name) == "val_half") worst_relative = relative;
    std::printf("scan %-10s scalar %7.2f GB/s, encoded %7.2f GB/s (%.2fx), "
                "%zu rows selected\n",
                sc.name, gb / scalar_s, gb / encoded_s, relative,
                oracle.size());
    JsonLine("scan_throughput")
        .Str("predicate", sc.name)
        .Num("scalar_gb_per_s", gb / scalar_s)
        .Num("encoded_gb_per_s", gb / encoded_s)
        .Num("encoded_over_scalar", relative)
        .Int("selected_rows", static_cast<int64_t>(oracle.size()))
        .Emit();
  }

  // ---- aggregate equality --------------------------------------------------
  const bool aggregates_identical =
      BitIdenticalAggregates(plain, encoded, &pool);
  if (!aggregates_identical) {
    std::fprintf(stderr, "FAILED: aggregate mismatch encoded vs scalar\n");
    ++mismatches;
  }

  // ---- morsel pruning ratio ------------------------------------------------
  obs::Counter* skipped = obs::DefaultRegistry()->GetCounter(
      "sciborq_morsels_skipped_total",
      "Scan morsels skipped entirely by zone-map pruning");
  const PredicatePtr selective = Between("id", 100'000.0, 110'000.0);
  const int64_t before = skipped->Value();
  (void)Unwrap(SelectAll(encoded, *selective));
  const int64_t morsels = kRows / kEncodingMorselRows;
  const double skip_ratio =
      static_cast<double>(skipped->Value() - before) /
      static_cast<double>(morsels);
  std::printf("pruning: %.0f%% of %lld morsels skipped for the id band\n",
              100.0 * skip_ratio, static_cast<long long>(morsels));
  JsonLine("scan_pruning")
      .Int("morsels", morsels)
      .Num("skip_ratio", skip_ratio)
      .Flag("aggregates_bit_identical", aggregates_identical)
      .Emit();

  // ---- clustered impression layer -----------------------------------------
  double layer_skip_ratio = 0.0;
  mismatches += LayerCase(&layer_skip_ratio);

  // ---- gates ---------------------------------------------------------------
  if (mismatches > 0) {
    std::fprintf(stderr,
                 "FAILED: %d mismatch(es) against the scalar or unpruned "
                 "scan\n",
                 mismatches);
    return 1;
  }
  if (!footprint_ok) {
    std::fprintf(stderr,
                 "FAILED: a compression-friendly column missed the 2x bar\n");
    return 1;
  }
  if (worst_relative < 0.9) {
    std::fprintf(stderr,
                 "FAILED: encoded scan %.2fx of scalar on the no-pruning "
                 "case (bar: 0.9x)\n",
                 worst_relative);
    return 1;
  }
  if (skip_ratio < 0.9) {
    std::fprintf(stderr, "FAILED: skip ratio %.2f below 0.9\n", skip_ratio);
    return 1;
  }
  if (layer_skip_ratio < kMinLayerSkipRatio) {
    std::fprintf(stderr,
                 "FAILED: clustered layer skip ratio %.2f below %.2f\n",
                 layer_skip_ratio, kMinLayerSkipRatio);
    return 1;
  }
  std::printf("scan bench OK\n");
  return 0;
}
