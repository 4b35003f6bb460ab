// sciborq_telemetry — drives a synthetic telemetry stream into a running
// sciborq_server over the wire: registers a *windowed* table (kCreateTable with
// a retention policy) and ingests batches from the deterministic
// TelemetryGenerator. The CI time-series smoke uses it to fill a server, then
// asserts that segment counts and on-disk bytes plateau while LAST(...) BY
// queries keep answering.
//
//   sciborq_telemetry --port 4242 --table telemetry --batches 200
//       --batch-rows 500 --bucket-width 1000 --window-buckets 10
//
// The table is created if absent (an AlreadyExists answer is tolerated, so
// re-runs append to the same stream). Exit code is non-zero on any failure.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "client/client.h"
#include "workload/telemetry.h"

using namespace sciborq;

namespace {

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--host HOST] [--port N] [--table NAME] [--batches N]\n"
      "          [--batch-rows N] [--bucket-width N] [--window-buckets N]\n"
      "          [--stations N] [--ts-increment N] [--seed N]\n"
      "  --host HOST        server host (default 127.0.0.1)\n"
      "  --port N           server port (default 4242)\n"
      "  --table NAME       target table (default telemetry)\n"
      "  --batches N        batches to ingest (default 50)\n"
      "  --batch-rows N     rows per batch (default 500)\n"
      "  --bucket-width N   retention bucket width in ts units (default 1000)\n"
      "  --window-buckets N buckets retained behind the newest (default 10)\n"
      "  --stations N       reporting stations (default 64)\n"
      "  --ts-increment N   mean ts advance per row (default 1)\n"
      "  --start-ts N       event time to start from (default 0; pass the\n"
      "                     previous run's printed watermark to continue)\n"
      "  --seed N           generator seed (default 42)\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = 4242;
  std::string table = "telemetry";
  int64_t batches = 50;
  int64_t batch_rows = 500;
  int64_t bucket_width = 1000;
  int64_t window_buckets = 10;
  int64_t stations = 64;
  int64_t ts_increment = 1;
  int64_t start_ts = 0;
  uint64_t seed = 42;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--host" && has_value) {
      host = argv[++i];
    } else if (arg == "--port" && has_value) {
      port = std::atoi(argv[++i]);
    } else if (arg == "--table" && has_value) {
      table = argv[++i];
    } else if (arg == "--batches" && has_value) {
      batches = std::atoll(argv[++i]);
    } else if (arg == "--batch-rows" && has_value) {
      batch_rows = std::atoll(argv[++i]);
    } else if (arg == "--bucket-width" && has_value) {
      bucket_width = std::atoll(argv[++i]);
    } else if (arg == "--window-buckets" && has_value) {
      window_buckets = std::atoll(argv[++i]);
    } else if (arg == "--stations" && has_value) {
      stations = std::atoll(argv[++i]);
    } else if (arg == "--ts-increment" && has_value) {
      ts_increment = std::atoll(argv[++i]);
    } else if (arg == "--start-ts" && has_value) {
      start_ts = std::atoll(argv[++i]);
    } else if (arg == "--seed" && has_value) {
      seed = static_cast<uint64_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      Usage(argv[0]);
      return 2;
    }
  }

  Result<SciborqClient> client = SciborqClient::Connect(host, port);
  if (!client.ok()) {
    std::fprintf(stderr, "connect %s:%d failed: %s\n", host.c_str(), port,
                 client.status().ToString().c_str());
    return 1;
  }

  TableOptions options;
  options.seed = seed;
  options.retention.time_column = "ts";
  options.retention.bucket_width = bucket_width;
  options.retention.window_buckets = window_buckets;
  const Status created =
      client->CreateTable(table, TelemetryGenerator::TableSchema(), options);
  if (!created.ok() && created.code() != StatusCode::kAlreadyExists) {
    std::fprintf(stderr, "create table '%s' failed: %s\n", table.c_str(),
                 created.ToString().c_str());
    return 1;
  }

  TelemetryConfig config;
  config.num_stations = stations;
  config.ts_increment_mean = ts_increment;
  config.start_ts = start_ts;
  Result<TelemetryGenerator> generator =
      TelemetryGenerator::Make(config, seed);
  if (!generator.ok()) {
    std::fprintf(stderr, "generator: %s\n",
                 generator.status().ToString().c_str());
    return 1;
  }

  int64_t total = 0;
  for (int64_t b = 0; b < batches; ++b) {
    const Table batch = generator->NextBatch(batch_rows);
    const Result<int64_t> rows = client->Ingest(table, batch);
    if (!rows.ok()) {
      std::fprintf(stderr, "ingest batch %lld failed: %s\n",
                   static_cast<long long>(b),
                   rows.status().ToString().c_str());
      return 1;
    }
    total += *rows;
  }
  std::printf("ingested %lld rows into '%s' (watermark ts=%lld)\n",
              static_cast<long long>(total), table.c_str(),
              static_cast<long long>(generator->watermark()));
  return 0;
}
