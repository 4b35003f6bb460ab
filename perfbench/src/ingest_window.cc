// ingest_window: writes beside reads on a persistent, windowed table.
//
// One connection ingests telemetry open loop at a fixed rate (each batch
// timed from when it was due, so a stall shows in every later batch); a
// second connection runs bounded AVG/LAST queries and a share of EXACT LAST
// closed loop. Every batch is fsync'd to the WAL before it is acknowledged
// (the engine's default flush policy), the window slides every few batches,
// and each eviction checkpoints and garbage-collects WAL segments.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "api/engine.h"
#include "client/client.h"
#include "layers.h"
#include "server/server.h"
#include "spans.h"
#include "util/string_util.h"
#include "workload/telemetry.h"
#include "workloads.h"

namespace perfbench {
namespace {

using sciborq::Engine;
using sciborq::SciborqClient;
using sciborq::SciborqServer;
using sciborq::StrFormat;
using sciborq::Table;

constexpr char kTable[] = "telemetry";
constexpr int64_t kStations = 64;
constexpr int64_t kBatchRows = 1000;
/// Event time advances about one unit per row, so a bucket spans five
/// batches and the live window about forty.
constexpr int64_t kBucketWidth = 5000;
constexpr int64_t kWindowBuckets = 8;
/// Batches loaded during setup: a full window plus a few evictions.
constexpr int64_t kPreloadBatches = 48;
/// Open-loop ingest rate, about a third of the closed-loop capacity of one
/// connection on a 4-core machine.
constexpr double kBatchesPerSecond = 30.0;
constexpr double kWarmupSeconds = 1.5;
constexpr int kSetupRepeats = 15;
/// Bytes of one live row: station_id int64, ts int64, value double.
constexpr double kPlainRowBytes = 24.0;

/// The query mix, cycled in order. Every WITHIN term is far above the cost
/// of the slowest path (a base scan of the live window), so no answer
/// depends on how fast the previous layer ran. Bounded AVG and EXACT LAST
/// cost about the same (3–4 ms of CPU) and bounded LAST, answered from the
/// last-seen sampler, about a sixth of that; with the cheap class a fifth of
/// the mix, p50 and p90 both fall inside the costly class's distribution
/// rather than on the edge between the classes.
const std::vector<std::string>& QueryMix() {
  static const std::vector<std::string> mix = {
      "SELECT AVG(value) FROM telemetry BY station_id WITHIN 50 MS",
      "SELECT LAST(value) FROM telemetry BY station_id WITHIN 50 MS",
      "SELECT AVG(value) FROM telemetry BY station_id WITHIN 50 MS",
      "SELECT LAST(value) FROM telemetry BY station_id EXACT",
      "SELECT AVG(value) FROM telemetry BY station_id WITHIN 50 MS",
  };
  return mix;
}

/// The table's samplers use a fixed seed, as on the static workloads: the
/// run's seed draws the telemetry stream.
sciborq::TableOptions WindowedOptions() {
  sciborq::TableOptions options;
  options.seed = 1;
  options.retention.time_column = "ts";
  options.retention.bucket_width = kBucketWidth;
  options.retention.window_buckets = kWindowBuckets;
  return options;
}

int64_t FloorDiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

struct DirStats {
  int64_t bytes = 0;
  int64_t wal_segments = 0;
  std::map<std::string, int64_t> wal_sizes;
};

DirStats ScanDir(const std::string& dir) {
  DirStats stats;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    std::error_code size_ec;
    const auto size = entry.file_size(size_ec);
    if (size_ec) continue;  // removed by a concurrent GC
    stats.bytes += static_cast<int64_t>(size);
    const std::string name = entry.path().filename().string();
    if (name.find(".wal") != std::string::npos) {
      ++stats.wal_segments;
      stats.wal_sizes[name] = static_cast<int64_t>(size);
    }
  }
  return stats;
}

/// The engine's retention and LAST semantics replayed over the acknowledged
/// stream: rows in buckets <= max bucket - window are gone; LAST keeps the
/// greatest ts per station, a later-ingested row winning ties.
struct Oracle {
  std::map<int64_t, double> last;
  std::map<int64_t, double> avg;
  int64_t live_rows = 0;
};

Oracle ReplayOracle(const std::vector<Table>& batches) {
  int64_t max_bucket = INT64_MIN;
  for (const Table& b : batches) {
    for (int64_t r = 0; r < b.num_rows(); ++r) {
      max_bucket = std::max(max_bucket,
                            FloorDiv(b.column(1).GetInt64(r), kBucketWidth));
    }
  }
  const int64_t cutoff = max_bucket - kWindowBuckets;
  Oracle oracle;
  std::map<int64_t, int64_t> last_ts;
  std::map<int64_t, std::pair<double, int64_t>> sums;
  for (const Table& b : batches) {
    for (int64_t r = 0; r < b.num_rows(); ++r) {
      const int64_t station = b.column(0).GetInt64(r);
      const int64_t ts = b.column(1).GetInt64(r);
      const double value = b.column(2).GetDouble(r);
      if (FloorDiv(ts, kBucketWidth) <= cutoff) continue;
      ++oracle.live_rows;
      const auto it = last_ts.find(station);
      if (it == last_ts.end() || ts >= it->second) {
        last_ts[station] = ts;
        oracle.last[station] = value;
      }
      sums[station].first += value;
      ++sums[station].second;
    }
  }
  for (const auto& [station, s] : sums) {
    oracle.avg[station] = s.first / static_cast<double>(s.second);
  }
  return oracle;
}

/// A persistent engine on a fresh db dir, serving on loopback.
struct System {
  std::string dir;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<SciborqServer> server;

  ~System() {
    server.reset();
    engine.reset();
    std::error_code ec;
    if (!dir.empty()) std::filesystem::remove_all(dir, ec);
  }
};

std::unique_ptr<System> BuildSystem(const Options& options, int rep,
                                    const std::vector<Table>& batches,
                                    double* setup_s) {
  auto system = std::make_unique<System>();
  system->dir = StrFormat("%s/ingest-db-%d-%d", options.out_dir.c_str(),
                          static_cast<int>(getpid()), rep);
  std::error_code ec;
  std::filesystem::remove_all(system->dir, ec);
  const double start = NowSeconds();
  system->engine =
      Must(Engine::Open(system->dir, sciborq::EngineOptions()), "open db");
  Must(system->engine->CreateTable(kTable,
                                   sciborq::TelemetryGenerator::TableSchema(),
                                   WindowedOptions()),
       "create table");
  for (int64_t b = 0; b < kPreloadBatches; ++b) {
    Must(system->engine->IngestBatch(kTable, batches[static_cast<size_t>(b)]),
         "preload");
  }
  system->server = std::make_unique<SciborqServer>(system->engine.get());
  Must(system->server->Start(), "server start");
  *setup_s = NowSeconds() - start;
  return system;
}

struct IngestPhase {
  std::vector<double> ack_ms;  ///< acknowledgement time from due
  std::vector<double> cpu_ms;  ///< writer client + server thread CPU
  std::vector<double> lag_ms;  ///< how late each send left
  std::vector<double> evicting_ms;
  int64_t rows = 0;
  int64_t failed = 0;
  double seconds = 0.0;
  int64_t wal_bytes = 0;
  int64_t wal_segments_max = 0;
  std::string first_failure;
};

struct QueryPhase {
  std::vector<double> latency_ms;
  std::vector<double> cpu_ms;  ///< reader client + server thread CPU
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t contract_met = 0;
  double seconds = 0.0;
  std::string first_failure;
};

/// CPU seconds of a client thread plus the server worker serving its
/// connection: the CPU one request cost, with waits (fsync, the table lock,
/// the network) and the other connection's work left out.
double RequestCpuSeconds(int client_tid, int server_tid) {
  return ThreadCpuSeconds(client_tid) + ThreadCpuSeconds(server_tid);
}

/// The server worker serving `client`'s connection, found while every other
/// thread is idle.
int ServerThreadOf(SciborqClient* client) {
  return BusiestOtherThread([client] {
    for (int i = 0; i < 200; ++i) Must(client->Ping(), "ping");
  });
}

/// Runs batches [first, last) open loop on one connection while a second
/// connection queries closed loop until the last batch is acknowledged.
/// With `trace`, both sides record spans and the ingest side samples the
/// db dir and the eviction counter after every acknowledgement.
void RunPhase(int port, const std::string& dir,
              const std::vector<Table>& batches, size_t first, size_t last,
              bool trace, IngestPhase* ingest, QueryPhase* queries,
              SpanLog* query_log, OutcomeStats* stats, SpanLog* ingest_log,
              std::vector<QueryOutcome>* samples) {
  SciborqClient writer =
      Must(SciborqClient::Connect("127.0.0.1", port), "connect writer");
  SciborqClient reader =
      Must(SciborqClient::Connect("127.0.0.1", port), "connect reader");
  const int writer_server = ServerThreadOf(&writer);
  const int reader_server = ServerThreadOf(&reader);
  const int writer_client = CurrentThreadId();
  std::atomic<bool> done{false};
  const double start = NowSeconds();

  std::thread query_thread([&] {
    const std::vector<std::string>& mix = QueryMix();
    const int reader_client = CurrentThreadId();
    size_t i = 0;
    while (!done.load(std::memory_order_acquire)) {
      const double t0 = NowSeconds();
      const double c0 = RequestCpuSeconds(reader_client, reader_server);
      Result<QueryOutcome> outcome = reader.Query(mix[i]);
      const double c1 = RequestCpuSeconds(reader_client, reader_server);
      const double t1 = NowSeconds();
      ++queries->attempted;
      if (!outcome.ok()) {
        ++queries->failed;
        if (queries->first_failure.empty()) {
          queries->first_failure = outcome.status().ToString();
        }
      } else {
        queries->latency_ms.push_back((t1 - t0) * 1e3);
        queries->cpu_ms.push_back((c1 - c0) * 1e3);
        if (outcome->error_bound_met && !outcome->deadline_exceeded) {
          ++queries->contract_met;
        }
        if (trace) {
          const int64_t root = query_log->Add(-1, query_log->NextRequest(),
                                              "client.query", t0, t1);
          query_log->AddOutcome(root, *outcome);
          stats->Add(t1 - t0, *outcome);
        }
        if (samples != nullptr && samples->size() < 2 * mix.size()) {
          samples->push_back(std::move(outcome).value());
        }
      }
      i = (i + 1) % mix.size();
    }
    queries->seconds = NowSeconds() - start;
  });

  std::map<std::string, int64_t> wal_seen;
  int64_t wal_before = 0;
  if (trace) {
    for (const auto& [name, size] : ScanDir(dir).wal_sizes) {
      wal_seen[name] = size;
      wal_before += size;
    }
  }
  double evicted = trace ? RegistrySum(TakeRegistrySnapshot(),
                                       "sciborq_rows_evicted_total")
                         : 0.0;
  for (size_t b = first; b < last; ++b) {
    const double due =
        start + static_cast<double>(b - first) / kBatchesPerSecond;
    double now = NowSeconds();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::duration<double>(due - now));
      now = NowSeconds();
    }
    const double c0 = RequestCpuSeconds(writer_client, writer_server);
    const Result<int64_t> acked = writer.Ingest(kTable, batches[b]);
    const double c1 = RequestCpuSeconds(writer_client, writer_server);
    const double ack = NowSeconds();
    ingest->lag_ms.push_back((now - due) * 1e3);
    if (!acked.ok()) {
      ++ingest->failed;
      if (ingest->first_failure.empty()) {
        ingest->first_failure = acked.status().ToString();
      }
      continue;
    }
    ingest->rows += *acked;
    ingest->ack_ms.push_back((ack - due) * 1e3);
    ingest->cpu_ms.push_back((c1 - c0) * 1e3);
    if (trace) {
      ingest_log->Add(-1, ingest_log->NextRequest(), "client.ingest", now, ack);
      const DirStats stats_now = ScanDir(dir);
      ingest->wal_segments_max =
          std::max(ingest->wal_segments_max, stats_now.wal_segments);
      for (const auto& [name, size] : stats_now.wal_sizes) {
        int64_t& seen = wal_seen[name];
        seen = std::max(seen, size);
      }
      const double evicted_now = RegistrySum(TakeRegistrySnapshot(),
                                             "sciborq_rows_evicted_total");
      if (evicted_now > evicted) ingest->evicting_ms.push_back((ack - now) * 1e3);
      evicted = evicted_now;
    }
  }
  ingest->seconds = NowSeconds() - start;
  done.store(true, std::memory_order_release);
  query_thread.join();
  if (trace) {
    int64_t wal_after = 0;
    for (const auto& [name, size] : wal_seen) wal_after += size;
    ingest->wal_bytes = wal_after - wal_before;
  }
}

}  // namespace

RunResult RunIngestWindow(const Options& options) {
  RunResult result;

  // -- Inputs from the seed (not timed) -------------------------------------
  sciborq::TelemetryConfig config;
  config.num_stations = kStations;
  sciborq::TelemetryGenerator generator = Must(
      sciborq::TelemetryGenerator::Make(config, options.seed), "generator");
  const auto phase_batches = static_cast<size_t>(
      std::ceil(options.seconds * kBatchesPerSecond));
  const auto warm_batches =
      static_cast<size_t>(std::ceil(kWarmupSeconds * kBatchesPerSecond));
  const size_t total = static_cast<size_t>(kPreloadBatches) + warm_batches +
                       phase_batches * (options.trace ? 2 : 1);
  std::vector<Table> batches;
  batches.reserve(total);
  for (size_t b = 0; b < total; ++b) {
    batches.push_back(generator.NextBatch(kBatchRows));
  }
  Say("workload=ingest_window seed=%llu rate=%.0f rows/s batches=%zu "
      "(preload %lld, warm-up %zu, %zu per phase) window=%lld buckets x %lld",
      static_cast<unsigned long long>(options.seed),
      kBatchesPerSecond * kBatchRows, total,
      static_cast<long long>(kPreloadBatches), warm_batches, phase_batches,
      static_cast<long long>(kWindowBuckets),
      static_cast<long long>(kBucketWidth));

  // -- Setup, repeated on fresh db dirs; the last one built here serves the
  // run. As on the static workloads, half the repeats run now and the rest
  // after the serving system is gone, so one host phase cannot decide the
  // median.
  std::vector<double> setup_s;
  auto setup = [&] {
    double seconds = 0.0;
    std::unique_ptr<System> built = BuildSystem(
        options, static_cast<int>(setup_s.size()), batches, &seconds);
    setup_s.push_back(seconds);
    Say("setup %zu: %.4f s", setup_s.size(), seconds);
    return built;
  };
  std::unique_ptr<System> system;
  for (int rep = 0; rep < (kSetupRepeats + 1) / 2; ++rep) {
    system.reset();
    system = setup();
  }
  const int port = system->server->port();

  // -- Warm-up, then the timed phase(s) -------------------------------------
  size_t next = static_cast<size_t>(kPreloadBatches);
  {
    IngestPhase ingest;
    QueryPhase queries;
    RunPhase(port, system->dir, batches, next, next + warm_batches, false,
             &ingest, &queries, nullptr, nullptr, nullptr, nullptr);
    next += warm_batches;
    Say("warm-up: %zu batches, %lld queries in %.3f s", warm_batches,
        static_cast<long long>(queries.attempted), ingest.seconds);
    if (ingest.failed + queries.failed > 0) Fail("warm-up requests failed");
  }

  IngestPhase ingest;
  QueryPhase queries;
  std::vector<QueryOutcome> samples;
  RunPhase(port, system->dir, batches, next, next + phase_batches, false,
           &ingest, &queries, nullptr, nullptr, nullptr, &samples);
  next += phase_batches;
  Say("timed: %lld rows acknowledged in %.3f s (%lld batches failed); %s; "
      "%s",
      static_cast<long long>(ingest.rows), ingest.seconds,
      static_cast<long long>(ingest.failed),
      Describe("ack p50", PercentileOf(ingest.ack_ms, 0.5), "ms").c_str(),
      Describe("send lag p99", PercentileOf(ingest.lag_ms, 0.99), "ms")
          .c_str());
  Say("  CPU per batch: %s",
      Describe("p50", PercentileOf(ingest.cpu_ms, 0.5), "ms").c_str());
  Say("timed: %lld queries (%lld failed); %s; %s",
      static_cast<long long>(queries.attempted),
      static_cast<long long>(queries.failed),
      Describe("p50", PercentileOf(queries.latency_ms, 0.5), "ms").c_str(),
      Describe("p90", PercentileOf(queries.latency_ms, 0.9), "ms").c_str());
  Say("  CPU per query: %s; %s",
      Describe("p50", PercentileOf(queries.cpu_ms, 0.5), "ms").c_str(),
      Describe("p90", PercentileOf(queries.cpu_ms, 0.9), "ms").c_str());
  result.attempted = queries.attempted + static_cast<int64_t>(phase_batches);
  result.failed = queries.failed + ingest.failed;
  if (queries.failed > 0) {
    result.errors.push_back("query failed: " + queries.first_failure);
  }
  if (ingest.failed > 0) {
    result.errors.push_back("ingest failed: " + ingest.first_failure);
  }

  // Disk and live bytes right after the last acknowledged batch, before
  // anything else touches the table.
  const DirStats disk = ScanDir(system->dir);
  const int64_t live_rows = Must(system->engine->TableRows(kTable), "rows");

  // -- Traced phase (trace runs only) ----------------------------------------
  SpanLog log;
  SpanLog ingest_log;
  OutcomeStats stats;
  IngestPhase traced_ingest;
  QueryPhase traced_queries;
  if (options.trace) {
    const RegistrySnapshot before = TakeRegistrySnapshot();
    RunPhase(port, system->dir, batches, next, next + phase_batches, true,
             &traced_ingest, &traced_queries, &log, &stats, &ingest_log,
             nullptr);
    next += phase_batches;
    const RegistrySnapshot after = TakeRegistrySnapshot();
    if (traced_ingest.failed + traced_queries.failed > 0) {
      result.errors.push_back("traced phase requests failed");
    }
    MetricSet& layer = result.per_layer;
    FillQueryLayerMetrics(
        stats, log, false,
        RegistryDelta(before, after, "sciborq_morsels_skipped_total"), &layer);
    const double fsyncs =
        RegistryDelta(before, after, "sciborq_wal_fsync_seconds_count");
    layer.Set("storage.wal_fsync_ms",
              fsyncs > 0.0 ? RegistryDelta(before, after,
                                           "sciborq_wal_fsync_seconds_sum") *
                                 1e3 / fsyncs
                           : 0.0,
              "ms");
    const double checkpoints =
        RegistryDelta(before, after, "sciborq_checkpoint_seconds_count");
    layer.Set("storage.checkpoint_ms",
              checkpoints > 0.0
                  ? RegistryDelta(before, after,
                                  "sciborq_checkpoint_seconds_sum") *
                        1e3 / checkpoints
                  : 0.0,
              "ms");
    layer.Set("storage.checkpoints", checkpoints, "count");
    layer.Set("storage.wal_bytes_per_row",
              traced_ingest.rows > 0
                  ? static_cast<double>(traced_ingest.wal_bytes) /
                        static_cast<double>(traced_ingest.rows)
                  : 0.0,
              "bytes");
    layer.Set("storage.wal_segments_max",
              static_cast<double>(traced_ingest.wal_segments_max), "count");
    layer.Set("retention.rows_evicted",
              RegistryDelta(before, after, "sciborq_rows_evicted_total"),
              "count");
    layer.Set("retention.evicting_batch_ms", Median(traced_ingest.evicting_ms),
              "ms");

    // The same batches applied to an ephemeral twin engine: ingest cost
    // without WAL, network or concurrent queries.
    Engine twin;
    Must(twin.CreateTable(kTable, sciborq::TelemetryGenerator::TableSchema(),
                          WindowedOptions()),
         "twin create");
    for (size_t b = 0; b < next; ++b) {
      ingest_log.Time("layer:ingest.apply",
                      [&] { return twin.IngestBatch(kTable, batches[b]).ok(); });
    }
    layer.Set("ingest.apply_ms",
              Median(ingest_log.DurationsMs("layer:ingest.apply")), "ms");

    TimeLayerCalls(QueryMix(), samples, 200, &log, &layer);
    double response_bytes = 0.0;
    for (const QueryOutcome& outcome : samples) {
      response_bytes += static_cast<double>(ResponseBytes(outcome));
    }
    layer.Set("server.response_bytes",
              samples.empty() ? 0.0
                              : response_bytes /
                                    static_cast<double>(samples.size()),
              "count");
  }

  // -- Answer checks on the final state (ingest stopped) --------------------
  const std::vector<Table> acknowledged(
      batches.begin(), batches.begin() + static_cast<std::ptrdiff_t>(next));
  const Oracle oracle = ReplayOracle(acknowledged);
  SciborqClient checker =
      Must(SciborqClient::Connect("127.0.0.1", port), "connect checker");
  const QueryOutcome exact_last = Must(
      checker.Query("SELECT LAST(value) FROM telemetry BY station_id EXACT"),
      "EXACT LAST");
  bool last_ok = exact_last.rows.size() == oracle.last.size();
  for (const sciborq::QueryResultRow& row : exact_last.rows) {
    const auto it = oracle.last.find(row.group_key.int64());
    if (it == oracle.last.end() || row.values.size() != 1 ||
        !sciborq::BitIdentical(row.values[0], it->second)) {
      last_ok = false;
    }
  }
  if (!last_ok) {
    result.errors.push_back(
        "EXACT LAST BY station_id disagrees with the oracle replay of the "
        "acknowledged stream");
  }
  const int64_t rows_now = Must(system->engine->TableRows(kTable), "rows");
  if (rows_now != oracle.live_rows) {
    result.errors.push_back(StrFormat(
        "live rows %lld != %lld the oracle replay keeps",
        static_cast<long long>(rows_now),
        static_cast<long long>(oracle.live_rows)));
  }
  int64_t bound_checked = 0;
  int64_t bound_within = 0;
  for (int i = 0; i < 20; ++i) {
    const QueryOutcome bounded = Must(checker.Query(QueryMix()[0]), "AVG");
    ++bound_checked;
    bool within = bounded.rows.size() == oracle.avg.size();
    for (const sciborq::QueryResultRow& row : bounded.rows) {
      const auto it = oracle.avg.find(row.group_key.int64());
      if (it == oracle.avg.end() ||
          !(std::fabs(row.values[0] - it->second) <=
            0.10 * std::fabs(it->second) + 1e-9 * std::fabs(it->second))) {
        within = false;
      }
    }
    if (within) ++bound_within;
  }
  Say("answer checks: EXACT LAST vs oracle replay %s (%zu stations, %lld "
      "live rows); %lld of %lld bounded AVG answers within 10%%",
      last_ok ? "match" : "MISMATCH", oracle.last.size(),
      static_cast<long long>(oracle.live_rows),
      static_cast<long long>(bound_within),
      static_cast<long long>(bound_checked));

  // -- End-to-end metrics -----------------------------------------------------
  MetricSet& e2e = result.end_to_end;
  e2e.Set("query_cpu_p50_ms", PercentileOf(queries.cpu_ms, 0.5).value, "ms");
  e2e.Set("query_cpu_p90_ms", PercentileOf(queries.cpu_ms, 0.9).value, "ms");
  e2e.Set("queries_per_cpu_s",
          static_cast<double>(queries.cpu_ms.size()) /
              (Sum(queries.cpu_ms) / 1e3),
          "1/s");
  e2e.Set("contract_met_ratio",
          static_cast<double>(queries.contract_met) /
              static_cast<double>(std::max<int64_t>(1, queries.attempted)),
          "ratio");
  e2e.Set("error_within_bound_ratio",
          static_cast<double>(bound_within) /
              static_cast<double>(std::max<int64_t>(1, bound_checked)),
          "ratio");
  e2e.Set("success_ratio",
          1.0 - static_cast<double>(result.failed) /
                    static_cast<double>(std::max<int64_t>(1, result.attempted)),
          "ratio");
  e2e.Set("ingest_rows_per_cpu_s",
          static_cast<double>(ingest.rows) / (Sum(ingest.cpu_ms) / 1e3),
          "1/s");
  e2e.Set("ingest_cpu_p50_ms", PercentileOf(ingest.cpu_ms, 0.5).value, "ms");
  e2e.Set("disk_bytes_per_live_byte",
          static_cast<double>(disk.bytes) /
              (static_cast<double>(live_rows) * kPlainRowBytes),
          "ratio");

  if (options.trace) {
    MetricSet& layer = result.per_layer;
    const sciborq::TableInfo info =
        Must(system->engine->GetTableInfo(kTable), "table info");
    double encoded = 0.0;
    for (const sciborq::ColumnStorageInfo& c : info.storage) {
      encoded += static_cast<double>(c.encoded_bytes);
    }
    layer.Set("column.encoded_bytes_per_row",
              info.rows > 0 ? encoded / static_cast<double>(info.rows) : 0.0,
              "bytes");
    layer.Set("bench.ingest_lag_ms", PercentileOf(ingest.lag_ms, 0.99).value,
              "ms");
    const double untraced_qps =
        static_cast<double>(queries.attempted - queries.failed) /
        queries.seconds;
    layer.Set("query_p50_ms", PercentileOf(queries.latency_ms, 0.5).value,
              "ms");
    layer.Set("query_p90_ms", PercentileOf(queries.latency_ms, 0.9).value,
              "ms");
    layer.Set("query_qps", untraced_qps, "1/s");
    layer.Set("ingest_rows_per_s",
              static_cast<double>(ingest.rows) / ingest.seconds, "1/s");
    layer.Set("ingest_ack_p50_ms", PercentileOf(ingest.ack_ms, 0.5).value,
              "ms");
    const Percentile p99 = PercentileOf(queries.latency_ms, 0.99);
    layer.Set("query_p99_ms", p99.value, "ms");
    layer.Set("query_p99_samples", static_cast<double>(p99.samples), "count");
    const double coverage = log.CoverageRatio("client.query");
    const double traced_qps =
        static_cast<double>(traced_queries.attempted - traced_queries.failed) /
        traced_queries.seconds;
    const double overhead = untraced_qps > 0.0 ? traced_qps / untraced_qps : 0.0;
    layer.Set("trace.coverage_ratio", coverage, "ratio");
    layer.Set("trace.overhead_ratio", overhead, "ratio");
    Say("%s", Describe("untraced query p99", p99, "ms").c_str());
    Say("%s", Describe("untraced ingest ack p99",
                       PercentileOf(ingest.ack_ms, 0.99), "ms")
                  .c_str());
    for (const Span& s : ingest_log.spans()) {
      log.Add(-1, log.NextRequest(), s.name, s.start, s.end);
    }
    PrintBreakdown(options.workload, log,
                   PercentileOf(queries.latency_ms, 0.5).value,
                   PercentileOf(traced_queries.latency_ms, 0.5).value,
                   coverage, overhead);
    const std::string path = StrFormat(
        "%s/spans-%s-%llu.jsonl", options.out_dir.c_str(),
        options.workload.c_str(), static_cast<unsigned long long>(options.seed));
    if (!log.Write(path)) Fail("cannot write " + path);
    Say("spans written to %s (%zu spans)", path.c_str(), log.spans().size());
  }
  system.reset();
  while (static_cast<int>(setup_s.size()) < kSetupRepeats) setup();
  e2e.Set("setup_s", Median(setup_s), "s");
  e2e.Set("peak_rss_mb", PeakRssMb(), "MB");
  return result;
}

}  // namespace perfbench
