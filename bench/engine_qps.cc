// End-to-end engine throughput: N client threads hammering Engine::Query
// with bounded SQL (parse -> catalog lookup -> escalation -> workload
// side-effects), then the same with a concurrent ingest stream — the
// serve-heavy-traffic shape the facade exists for.
//
// This dev container may have few cores; thread scaling is best read on
// multicore hardware. Text-parsing cost is included deliberately: QPS here
// is what a network front end would see.

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "bench/bench_util.h"
#include "obs/metrics.h"
#include "skyserver/catalog.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

using namespace sciborq;
using sciborq::bench::Header;
using sciborq::bench::PairedMedianRatio;
using sciborq::bench::PairedRatio;
using sciborq::bench::PinProcessToOneCpu;
using sciborq::bench::ProcessCpuSeconds;
using sciborq::bench::Unwrap;

namespace {

constexpr int64_t kBaseRows = 200'000;
constexpr int kQueriesPerThread = 200;

std::string MakeSql(int index) {
  // Jittered cone centers over the catalog's sky footprint; every statement
  // carries its contract in-SQL.
  const double ra = 130.0 + 10.0 * (index % 10);
  const double dec = 5.0 + 5.0 * (index % 11);
  return StrFormat(
      "SELECT COUNT(*), AVG(r) FROM photo_obj_all "
      "WHERE cone(ra, dec; %g, %g; r=8) ERROR 25%%",
      ra, dec);
}

// The SkyServer template shape (§2.1): one statement, shifting focal-point
// constants. The reparse path renders + parses the full SQL per call (what a
// string-templating client does); the prepared path binds the same constants
// into a cached plan.
constexpr char kBoxTemplate[] =
    "SELECT COUNT(*) FROM photo_obj_all "
    "WHERE ra >= ? AND ra <= ? AND dec >= ? AND dec <= ? ERROR 25%";

std::vector<Value> BoxParams(int index) {
  const double ra = 130.0 + 10.0 * (index % 10);
  const double dec = 5.0 + 5.0 * (index % 11);
  return {Value(ra - 20.0), Value(ra + 20.0), Value(dec - 20.0),
          Value(dec + 20.0)};
}

std::string BoxSql(int index) {
  const double ra = 130.0 + 10.0 * (index % 10);
  const double dec = 5.0 + 5.0 * (index % 11);
  return StrFormat(
      "SELECT COUNT(*) FROM photo_obj_all "
      "WHERE ra >= %.17g AND ra <= %.17g AND dec >= %.17g AND dec <= %.17g "
      "ERROR 25%%",
      ra - 20.0, ra + 20.0, dec - 20.0, dec + 20.0);
}

/// Runs `threads` clients, each issuing kQueriesPerThread bounded queries.
/// Returns achieved QPS; counts failures (expected: none).
double RunClients(Engine* engine, int threads, int64_t* failures) {
  std::atomic<int64_t> failed{0};
  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(threads));
  Stopwatch watch;
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([engine, t, &failed] {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        const Result<QueryOutcome> outcome =
            engine->Query(MakeSql(t * kQueriesPerThread + i));
        if (!outcome.ok()) failed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& client : clients) client.join();
  const double seconds = watch.ElapsedSeconds();
  *failures = failed.load();
  const int64_t total = static_cast<int64_t>(threads) * kQueriesPerThread;
  return static_cast<double>(total) / seconds;
}

}  // namespace

int main() {
  Header("engine_qps: multi-threaded bounded SQL through sciborq::Engine");

  SkyCatalogConfig config;
  config.num_rows = kBaseRows;
  const SkyCatalog catalog = Unwrap(GenerateSkyCatalog(config, 11));

  Engine engine;
  TableOptions table_options;
  table_options.layers = {{"l0", 20'000}, {"l1", 2'000}};
  table_options.seed = 11;
  if (Status st = engine.CreateTable("photo_obj_all",
                                     catalog.photo_obj_all.schema(),
                                     table_options);
      !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  if (Status st = engine.IngestBatch("photo_obj_all", catalog.photo_obj_all);
      !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  std::printf("base: %lld rows, %d hardware threads\n\n",
              static_cast<long long>(kBaseRows),
              static_cast<int>(std::thread::hardware_concurrency()));

  std::printf("%-10s %12s %10s\n", "clients", "qps", "failures");
  for (const int threads : {1, 2, 4, 8}) {
    int64_t failures = 0;
    const double qps = RunClients(&engine, threads, &failures);
    std::printf("%-10d %12.0f %10lld\n", threads, qps,
                static_cast<long long>(failures));
    sciborq::bench::JsonLine("engine_qps")
        .Int("clients", threads)
        .Num("qps", qps)
        .Int("failures", failures)
        .Int("base_rows", kBaseRows)
        .Emit();
  }

  // Prepared vs reparse: the template-heavy SkyServer shape. Same work, same
  // answers — the gap is pure front-end cost (render + lex + parse + plan
  // per call vs bind into a cached template).
  Header("prepared vs reparse: one box template, shifting focal points");
  {
    constexpr int kWarmup = 200;
    constexpr int kIters = 3000;
    const Result<StatementHandle> handle = engine.Prepare(kBoxTemplate);
    if (!handle.ok()) {
      std::fprintf(stderr, "prepare: %s\n",
                   handle.status().ToString().c_str());
      return 1;
    }
    // Correctness gate: bound execution must equal the fully-rendered SQL.
    for (int i = 0; i < 7; ++i) {
      const Result<QueryOutcome> bound = engine.Execute(*handle, BoxParams(i));
      const Result<QueryOutcome> rendered = engine.Query(BoxSql(i));
      if (!bound.ok() || !rendered.ok() ||
          !EquivalentAnswers(*bound, *rendered)) {
        std::fprintf(stderr,
                     "MISMATCH: Execute(handle, params) != Query(rendered "
                     "sql) at i=%d\n",
                     i);
        return 1;
      }
    }
    for (int i = 0; i < kWarmup; ++i) {
      (void)engine.Query(BoxSql(i));
      (void)engine.Execute(*handle, BoxParams(i));
    }
    Stopwatch reparse_watch;
    for (int i = 0; i < kIters; ++i) {
      if (!engine.Query(BoxSql(i)).ok()) {
        std::fprintf(stderr, "reparse query failed at i=%d\n", i);
        return 1;
      }
    }
    const double reparse_qps = kIters / reparse_watch.ElapsedSeconds();
    Stopwatch prepared_watch;
    for (int i = 0; i < kIters; ++i) {
      if (!engine.Execute(*handle, BoxParams(i)).ok()) {
        std::fprintf(stderr, "prepared execute failed at i=%d\n", i);
        return 1;
      }
    }
    const double prepared_qps = kIters / prepared_watch.ElapsedSeconds();
    std::printf("reparse:  %10.0f qps (render + parse every call)\n"
                "prepared: %10.0f qps (bind into cached template)\n"
                "speedup:  %10.2fx\n",
                reparse_qps, prepared_qps, prepared_qps / reparse_qps);
    sciborq::bench::JsonLine("engine_prepared_vs_reparse")
        .Num("prepared_qps", prepared_qps)
        .Num("reparse_qps", reparse_qps)
        .Num("speedup", prepared_qps / reparse_qps)
        .Int("iters", kIters)
        .Emit();
    if (Status st = engine.CloseStatement(*handle); !st.ok()) {
      std::fprintf(stderr, "close: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  // Mixed phase: 4 query clients racing one ingest stream (the shared-mutex
  // per table at work: readers share, each daily batch briefly excludes).
  Header("mixed: 4 query clients + concurrent ingest");
  SkyStream stream(config, 12);
  std::atomic<bool> stop{false};
  std::thread ingester([&engine, &stream, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      const Table batch = stream.NextBatch(10'000);
      if (Status st = engine.IngestBatch("photo_obj_all", batch); !st.ok()) {
        std::fprintf(stderr, "ingest: %s\n", st.ToString().c_str());
        return;
      }
    }
  });
  int64_t failures = 0;
  const double qps = RunClients(&engine, 4, &failures);
  stop.store(true);
  ingester.join();
  std::printf("4 clients under ingest: %.0f qps, %lld failures, base now "
              "%lld rows\n",
              qps, static_cast<long long>(failures),
              static_cast<long long>(*engine.TableRows("photo_obj_all")));
  sciborq::bench::JsonLine("engine_qps_under_ingest")
      .Int("clients", 4)
      .Num("qps", qps)
      .Int("failures", failures)
      .Int("base_rows_final", *engine.TableRows("photo_obj_all"))
      .Emit();

  // Metrics overhead gate: the observability layer (counters, histograms,
  // spans) must cost the query hot path under 3%. obs::SetEnabled(false)
  // reduces every metric update to one relaxed load + branch — the baseline.
  // Each run is measured in queries per CPU-second of the whole process
  // (the client thread and the engine's pool), pinned to one CPU: wall-clock
  // QPS on an unpinned process moved with the host's load by ten times the
  // bound. The gate reads the median ratio over many short adjacent pairs
  // (bench_util.h, PairedMedianRatio).
  Header("metrics overhead: instrumented vs baseline (obs disabled)");
  {
    constexpr int kIters = 250;
    constexpr int kPairs = 201;
    if (!PinProcessToOneCpu()) {
      std::fprintf(stderr, "could not pin the process to one CPU\n");
      return 1;
    }
    const PairedRatio overhead = PairedMedianRatio(
        kPairs, [&engine](bool instrumented, int pair) -> double {
          obs::SetEnabled(instrumented);
          const double cpu_start = ProcessCpuSeconds();
          for (int i = 0; i < kIters; ++i) {
            if (!engine.Query(MakeSql(pair * kIters + i)).ok()) return -1.0;
          }
          return kIters / (ProcessCpuSeconds() - cpu_start);
        });
    obs::SetEnabled(true);
    if (!overhead.ok) {
      std::fprintf(stderr, "metrics overhead run failed\n");
      return 1;
    }
    const double overhead_ratio = overhead.ratio;
    std::printf("baseline (obs off): %10.0f queries/cpu-s (median)\n"
                "instrumented:       %10.0f queries/cpu-s (median)\n"
                "ratio:              %10.3f (median of %d pairs)\n",
                overhead.baseline_rate, overhead.treatment_rate,
                overhead_ratio, overhead.pairs);
    sciborq::bench::JsonLine("engine_metrics_overhead")
        .Num("instrumented_queries_per_cpu_s", overhead.treatment_rate)
        .Num("baseline_queries_per_cpu_s", overhead.baseline_rate)
        .Num("ratio", overhead_ratio)
        .Int("iters", kIters)
        .Int("pairs", overhead.pairs)
        .Emit();
    if (overhead_ratio < 0.97) {
      std::fprintf(stderr,
                   "metrics overhead gate FAILED: the median instrumented/"
                   "baseline ratio of queries per CPU-second is %.3f, under "
                   "0.97\n",
                   overhead_ratio);
      return 1;
    }
  }
  return 0;
}
