// sciborq_coord — the SciBORQ distributed coordinator.
//
//   sciborq_coord --shard host:port [--shard host:port ...]
//                 [--table-map FILE] [--port 4243]
//                 [--register name=path.csv ...] [--seed N]
//                 [--max-connections N] [--metrics-port N]
//
// Serves through the same wire front end as sciborq_server (SciborqServer
// over a coordinator Backend), so sciborq_cli and SciborqClient work
// against it unchanged — but every query fans out over the shard servers
// and the partial answers merge with composed bounds (COUNT/SUM add,
// AVG/VAR merge Welford partials; see src/coord/). A shard
// that is down or blows its share of the time budget degrades the answer
// (PARTIAL flag + widened bounds) instead of hanging the client.
//
// --shard lists the default shard set (every table lives on all of them);
// --table-map pins tables to explicit shard lists, one
// `table: host:port, host:port` line each. --register loads a CSV through
// the coordinator, creating the table on every shard (per-shard derived
// sampler seeds) and routing the rows in contiguous slices.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "coord/coordinator.h"
#include "obs/metrics.h"
#include "obs/metrics_http.h"
#include "util/log.h"

using namespace sciborq;

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int /*signum*/) { g_stop = 1; }

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --shard HOST:PORT [--shard HOST:PORT ...]\n"
      "          [--table-map FILE] [--port N] [--register NAME=CSV ...]\n"
      "          [--seed N] [--max-connections N] [--metrics-port N]\n"
      "  --shard HOST:PORT     a shard server (repeat; the default shard\n"
      "                        set for every table)\n"
      "  --table-map FILE      per-table shard lists, one\n"
      "                        'table: host:port, host:port' line each\n"
      "  --port N              TCP port to serve (default 4243; 0 = free)\n"
      "  --register NAME=CSV   load CSV as table NAME across the shards\n"
      "  --seed N              table seed for --register (default 42)\n"
      "  --max-connections N   concurrent client connections (default 8)\n"
      "  --metrics-port N      serve Prometheus text exposition on\n"
      "                        http://0.0.0.0:N/metrics (0 = pick a free\n"
      "                        port; omit to disable)\n"
      "at least one of --shard / --table-map is required\n",
      argv0);
}

bool ParseIntFlag(const char* value, int* out) {
  char* end = nullptr;
  const long v = std::strtol(value, &end, 10);
  if (end == value || *end != '\0') return false;
  *out = static_cast<int>(v);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> shard_specs;
  std::vector<std::pair<std::string, std::string>> registrations;
  std::string table_map_path;
  int port = 4243;
  int max_connections = 8;
  int seed = 42;
  int metrics_port = -1;  // -1 = no metrics endpoint

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--shard" && has_value) {
      shard_specs.emplace_back(argv[++i]);
    } else if (arg == "--table-map" && has_value) {
      table_map_path = argv[++i];
    } else if (arg == "--register" && has_value) {
      const std::string spec = argv[++i];
      const size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
        std::fprintf(stderr, "bad --register value '%s' (want NAME=CSV)\n",
                     spec.c_str());
        return 2;
      }
      registrations.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    } else if (arg == "--port" && has_value) {
      if (!ParseIntFlag(argv[++i], &port)) {
        std::fprintf(stderr, "bad --port value '%s'\n", argv[i]);
        return 2;
      }
    } else if (arg == "--max-connections" && has_value) {
      if (!ParseIntFlag(argv[++i], &max_connections)) {
        std::fprintf(stderr, "bad --max-connections value '%s'\n", argv[i]);
        return 2;
      }
    } else if (arg == "--seed" && has_value) {
      if (!ParseIntFlag(argv[++i], &seed)) {
        std::fprintf(stderr, "bad --seed value '%s'\n", argv[i]);
        return 2;
      }
    } else if (arg == "--metrics-port" && has_value) {
      if (!ParseIntFlag(argv[++i], &metrics_port)) {
        std::fprintf(stderr, "bad --metrics-port value '%s'\n", argv[i]);
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      Usage(argv[0]);
      return 2;
    }
  }

  ShardMap shards;
  std::vector<ShardEndpoint> defaults;
  for (const std::string& spec : shard_specs) {
    Result<ShardEndpoint> endpoint = ParseShardEndpoint(spec);
    if (!endpoint.ok()) {
      std::fprintf(stderr, "%s\n", endpoint.status().ToString().c_str());
      return 2;
    }
    defaults.push_back(std::move(endpoint).value());
  }
  shards.SetDefaultShards(std::move(defaults));
  if (!table_map_path.empty()) {
    if (Status st = shards.LoadTableMapFile(table_map_path); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 2;
    }
  }
  if (shards.empty()) {
    std::fprintf(stderr, "at least one of --shard / --table-map is required\n");
    Usage(argv[0]);
    return 2;
  }

  CoordinatorOptions options;
  options.port = port;
  options.max_connections = max_connections;
  SciborqCoordinator coordinator(std::move(shards), options);

  TableOptions table_options;
  table_options.seed = static_cast<uint64_t>(seed);
  for (const auto& [name, csv] : registrations) {
    Result<int64_t> rows = coordinator.RegisterCsv(name, csv, table_options);
    if (!rows.ok()) {
      LogError("failed to register '%s' from %s: %s", name.c_str(),
               csv.c_str(), rows.status().ToString().c_str());
      return 1;
    }
    LogInfo("registered table '%s' (%lld rows) across %d shard(s)",
            name.c_str(), static_cast<long long>(*rows),
            static_cast<int>(
                coordinator.shard_map().ShardsFor(name).size()));
  }

  if (Status st = coordinator.Start(); !st.ok()) {
    LogError("start failed: %s", st.ToString().c_str());
    return 1;
  }
  std::optional<obs::MetricsHttpServer> metrics_server;
  if (metrics_port >= 0) {
    metrics_server.emplace(obs::DefaultRegistry(), metrics_port);
    if (Status st = metrics_server->Start(); !st.ok()) {
      LogError("metrics endpoint failed to start: %s", st.ToString().c_str());
      return 1;
    }
    LogInfo("metrics endpoint on http://0.0.0.0:%d/metrics",
            metrics_server->port());
  }
  LogInfo(
      "sciborq_coord listening on port %d (%d shard endpoint(s), %d "
      "connection slots)",
      coordinator.port(),
      static_cast<int>(coordinator.shard_map().AllEndpoints().size()),
      max_connections);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  LogInfo("shutting down: draining in-flight queries...");
  if (metrics_server.has_value()) metrics_server->Stop();
  coordinator.Stop();
  const SciborqServer& front_end = coordinator.server();
  LogInfo(
      "served %lld distributed queries over %lld connections (%lld protocol "
      "errors, %lld bytes in, %lld bytes out); bye",
      static_cast<long long>(coordinator.queries_served()),
      static_cast<long long>(front_end.connections_accepted()),
      static_cast<long long>(front_end.protocol_errors()),
      static_cast<long long>(front_end.bytes_received()),
      static_cast<long long>(front_end.bytes_sent()));
  return 0;
}
