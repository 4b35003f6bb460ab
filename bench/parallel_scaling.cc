// Parallel scan scaling: morsel-driven RunExact and EstimateOnImpression vs
// thread count, on the SkyServer synthetic table. Verifies along the way
// that every pooled result is bit-identical to the serial one — speed must
// never change answers — and exits 1 when one is not.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/bounded_executor.h"
#include "core/impression_builder.h"
#include "exec/expr.h"
#include "exec/query.h"
#include "skyserver/catalog.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"
#include "workload/interest_tracker.h"

namespace sciborq::bench {
namespace {

constexpr int kRepeats = 3;
const int kThreadCounts[] = {1, 2, 4, 8};

AggregateQuery ScanQuery() {
  AggregateQuery q;
  q.aggregates = {{AggKind::kCount, ""},
                  {AggKind::kSum, "r"},
                  {AggKind::kAvg, "redshift"},
                  {AggKind::kVariance, "dec"}};
  q.filter = Between("ra", 130.0, 220.0);
  return q;
}

double BestOf(int repeats, const std::function<void()>& fn) {
  double best = 1e100;
  for (int r = 0; r < repeats; ++r) {
    Stopwatch watch;
    fn();
    best = std::min(best, watch.ElapsedSeconds());
  }
  return best;
}

const char* Identical(bool same) { return same ? "yes" : "NO (BUG)"; }

/// Returns true when every pooled scan equals the serial one bit for bit.
bool ScanScaling(const Table& table) {
  Header("Morsel-parallel scan: RunExact over PhotoObjAll");
  Expectation(
      "throughput scales with threads (>= 3x at 8 threads on >= 8 cores); "
      "results bit-identical to serial at every thread count");
  const AggregateQuery query = ScanQuery();
  const auto truth = Unwrap(RunExact(table, query));
  const double serial_s =
      BestOf(kRepeats, [&] { Unwrap(RunExact(table, query)); });
  std::printf("rows=%lld  serial=%.1fms (%.2fM rows/s)\n",
              static_cast<long long>(table.num_rows()), serial_s * 1e3,
              static_cast<double>(table.num_rows()) / serial_s / 1e6);
  bool all_identical = true;
  for (const int threads : kThreadCounts) {
    if (threads == 1) continue;
    ThreadPool pool(threads);
    const bool same = Unwrap(RunExact(table, query, &pool)) == truth;
    all_identical = all_identical && same;
    const double par_s =
        BestOf(kRepeats, [&] { Unwrap(RunExact(table, query, &pool)); });
    Measured(StrFormat("threads=%d  %.1fms  speedup=%.2fx  identical=%s",
                       threads, par_s * 1e3, serial_s / par_s,
                       Identical(same)));
  }
  return all_identical;
}

/// Returns true when every pooled estimate of `q` on `impression` equals the
/// serial one bit for bit.
bool EstimateScaling(const std::string& title, const Impression& impression,
                     const AggregateQuery& q) {
  Header("Morsel-parallel impression scan: EstimateOnImpression, " + title);
  Expectation("layer estimation speeds up on large impressions too");
  const BoundedAnswer truth = Unwrap(EstimateOnImpression(impression, q, 0.95));
  const double serial_s = BestOf(kRepeats, [&] {
    Unwrap(EstimateOnImpression(impression, q, 0.95));
  });
  std::printf("impression_rows=%lld  serial=%.1fms\n",
              static_cast<long long>(impression.size()), serial_s * 1e3);
  bool all_identical = true;
  for (const int threads : kThreadCounts) {
    if (threads == 1) continue;
    ThreadPool pool(threads);
    const BoundedAnswer result =
        Unwrap(EstimateOnImpression(impression, q, 0.95, &pool));
    const bool same =
        result.rows == truth.rows && result.estimates == truth.estimates;
    all_identical = all_identical && same;
    const double par_s = BestOf(kRepeats, [&] {
      Unwrap(EstimateOnImpression(impression, q, 0.95, &pool));
    });
    Measured(StrFormat("threads=%d  %.1fms  speedup=%.2fx  identical=%s",
                       threads, par_s * 1e3, serial_s / par_s,
                       Identical(same)));
  }
  return all_identical;
}

/// The ungrouped COUNT/AVG on a large uniform layer, then a grouped query of
/// every moment aggregate on a biased layer.
bool EstimateScaling(const Table& table) {
  ImpressionSpec spec;
  spec.capacity = 200'000;
  spec.seed = 3;
  auto uniform = Unwrap(ImpressionBuilder::Make(table.schema(), spec));
  if (!uniform.IngestBatch(table).ok()) std::abort();
  AggregateQuery q;
  q.aggregates = {{AggKind::kCount, ""}, {AggKind::kAvg, "r"}};
  q.filter = Between("ra", 130.0, 220.0);
  const bool uniform_ok =
      EstimateScaling("uniform layer", uniform.impression(), q);

  InterestTracker tracker = MakeRaDecTracker();
  for (int i = 0; i < 50; ++i) {
    tracker.ObserveValue("ra", 150.0);
    tracker.ObserveValue("dec", 12.0);
  }
  spec.capacity = 60'000;
  spec.policy = SamplingPolicy::kBiased;
  spec.tracker = &tracker;
  auto biased = Unwrap(ImpressionBuilder::Make(table.schema(), spec));
  if (!biased.IngestBatch(table).ok()) std::abort();
  AggregateQuery grouped;
  grouped.aggregates = {{AggKind::kCount, ""},    {AggKind::kSum, "r"},
                        {AggKind::kAvg, "redshift"}, {AggKind::kMin, "g"},
                        {AggKind::kMax, "g"},     {AggKind::kVariance, "dec"}};
  grouped.filter = Between("ra", 100.0, 250.0);
  grouped.group_by = "obj_class";
  const bool biased_ok = EstimateScaling("grouped, biased layer",
                                         biased.impression(), grouped);
  return uniform_ok && biased_ok;
}

/// Returns true when every pooled result matched its serial reference.
bool Run() {
  std::printf("hardware_concurrency=%d\n",
              ThreadPool::ResolveThreadCount(0));
  SkyCatalogConfig config;
  config.num_rows = 600'000;
  const SkyCatalog catalog = Unwrap(GenerateSkyCatalog(config, 2026));
  const bool scan_ok = ScanScaling(catalog.photo_obj_all);
  const bool estimate_ok = EstimateScaling(catalog.photo_obj_all);
  return scan_ok && estimate_ok;
}

}  // namespace
}  // namespace sciborq::bench

int main() {
  if (sciborq::bench::Run()) return 0;
  std::fprintf(stderr, "a pooled result differs from the serial one\n");
  return 1;
}
