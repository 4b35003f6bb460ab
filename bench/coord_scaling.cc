// Distributed fan-out scaling: a SciborqCoordinator over 1/2/4 shard
// servers on TCP loopback vs the same data on a single node.
//
// Three gates, all hard (non-zero exit on failure):
//   1. Equivalence — the 2-shard merged EXACT answer matches the
//      single-node answer bit for bit (each 16384-row shard slice is
//      exactly one morsel, so the coordinator's Welford merge replays the
//      single node's own fold tree).
//   2. Throughput — bounded queries through the coordinator complete with
//      zero failures at every shard count; QPS goes out as BENCH_JSON.
//   3. Degradation — killing one of two shards mid-flight yields a flagged
//      PARTIAL answer within the query's time budget, never a hang or an
//      error.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "api/engine.h"
#include "bench/bench_util.h"
#include "coord/coordinator.h"
#include "server/server.h"
#include "skyserver/catalog.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

using namespace sciborq;
using sciborq::bench::Header;
using sciborq::bench::JsonLine;
using sciborq::bench::Unwrap;

namespace {

// 2 x kDefaultMorselRows: the 2-shard split lands exactly on the single
// node's morsel boundaries — the precondition for gate 1's bit-identity.
constexpr int64_t kBaseRows = 32'768;
constexpr int kQueriesPerTopology = 60;

std::string BoundedSql(int index) {
  const double ra = 130.0 + 10.0 * (index % 10);
  const double dec = 5.0 + 5.0 * (index % 11);
  return StrFormat(
      "SELECT COUNT(*), AVG(r) FROM photo_obj_all "
      "WHERE ra >= %g AND ra <= %g AND dec >= %g AND dec <= %g ERROR 25%%",
      ra - 20.0, ra + 20.0, dec - 20.0, dec + 20.0);
}

/// One shard server with its own engine, bound to an ephemeral port.
struct Shard {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<SciborqServer> server;
};

Shard StartShard() {
  Shard shard;
  shard.engine = std::make_unique<Engine>();
  ServerOptions options;
  options.port = 0;
  shard.server = std::make_unique<SciborqServer>(shard.engine.get(), options);
  if (Status st = shard.server->Start(); !st.ok()) {
    std::fprintf(stderr, "shard start: %s\n", st.ToString().c_str());
    std::abort();
  }
  return shard;
}

/// A coordinator over `n` fresh shards with the catalog distributed
/// through its own ingest routing.
struct Topology {
  std::vector<Shard> shards;
  std::unique_ptr<SciborqCoordinator> coordinator;

  void Stop() {
    coordinator.reset();
    for (Shard& shard : shards) shard.server->Stop();
  }
};

/// The shards take `options` whole (layers included); only the seed is
/// redrawn per shard.
Topology BuildTopology(int n, const Table& base, const TableOptions& options) {
  Topology topo;
  std::vector<ShardEndpoint> endpoints;
  for (int s = 0; s < n; ++s) {
    topo.shards.push_back(StartShard());
    endpoints.push_back({"127.0.0.1", topo.shards.back().server->port()});
  }
  ShardMap map;
  map.SetDefaultShards(std::move(endpoints));
  topo.coordinator = std::make_unique<SciborqCoordinator>(std::move(map));
  if (Status st = topo.coordinator->CreateTable("photo_obj_all",
                                                 base.schema(), options);
      !st.ok()) {
    std::fprintf(stderr, "distributed create: %s\n", st.ToString().c_str());
    std::abort();
  }
  const int64_t rows =
      Unwrap(topo.coordinator->IngestBatch("photo_obj_all", base));
  if (rows != base.num_rows()) {
    std::fprintf(stderr, "distributed ingest routed %lld of %lld rows\n",
                 static_cast<long long>(rows),
                 static_cast<long long>(base.num_rows()));
    std::abort();
  }
  return topo;
}

}  // namespace

int main() {
  Header("coord_scaling: distributed bounded queries over 1/2/4 shards");

  SkyCatalogConfig config;
  config.num_rows = kBaseRows;
  const SkyCatalog catalog = Unwrap(GenerateSkyCatalog(config, 11));
  const Table& base = catalog.photo_obj_all;

  Engine single;
  TableOptions table_options;
  table_options.layers = {{"l0", 8'192}, {"l1", 1'024}};
  table_options.seed = 11;
  if (!single.CreateTable("photo_obj_all", base.schema(), table_options).ok() ||
      !single.IngestBatch("photo_obj_all", base).ok()) {
    std::fprintf(stderr, "single-node setup failed\n");
    return 1;
  }

  bool gates_ok = true;

  // -- Gate 1: merged EXACT == single node, bit for bit --------------------
  {
    Topology topo = BuildTopology(2, base, table_options);
    const std::string sql =
        "SELECT COUNT(*), SUM(r), AVG(r), VAR(r), MIN(r), MAX(r) "
        "FROM photo_obj_all EXACT";
    const QueryOutcome merged = Unwrap(topo.coordinator->Query(sql));
    const QueryOutcome local = Unwrap(single.Query(sql));
    bool identical = EquivalentAnswerData(merged, local) &&
                     merged.rows.size() == local.rows.size();
    for (size_t i = 0; identical && i < local.rows[0].values.size(); ++i) {
      identical = std::memcmp(&local.rows[0].values[i],
                              &merged.rows[0].values[i], sizeof(double)) == 0;
    }
    if (!identical || merged.partial || !merged.exact ||
        merged.shards_responded != 2) {
      std::fprintf(stderr,
                   "MISMATCH: 2-shard merged answer != single node\n"
                   "merged: %s\nlocal:  %s\n",
                   merged.ToString().c_str(), local.ToString().c_str());
      gates_ok = false;
    } else {
      std::printf("equivalence: 2-shard merged == single node, bit-exact ✓\n");
    }
    JsonLine("coord_equivalence")
        .Int("shards", 2)
        .Flag("bit_identical", identical)
        .Flag("partial", merged.partial)
        .Emit();
    topo.Stop();
  }

  // -- Gate 2: bounded-query throughput at 1/2/4 shards --------------------
  std::printf("\n%-10s %12s %10s\n", "shards", "qps", "failures");
  for (const int n : {1, 2, 4}) {
    Topology topo = BuildTopology(n, base, table_options);
    int64_t failures = 0;
    Stopwatch watch;
    for (int i = 0; i < kQueriesPerTopology; ++i) {
      Result<QueryOutcome> outcome = topo.coordinator->Query(BoundedSql(i));
      if (!outcome.ok() || outcome->partial) failures++;
    }
    const double seconds = watch.ElapsedSeconds();
    const double qps = kQueriesPerTopology / seconds;
    std::printf("%-10d %12.0f %10lld\n", n, qps,
                static_cast<long long>(failures));
    JsonLine("coord_scaling")
        .Int("shards", n)
        .Num("qps", qps)
        .Int("failures", failures)
        .Int("base_rows", kBaseRows)
        .Emit();
    if (failures != 0) {
      std::fprintf(stderr, "%lld bounded queries failed at %d shards\n",
                   static_cast<long long>(failures), n);
      gates_ok = false;
    }
    topo.Stop();
  }

  // -- Gate 3: killing a shard degrades within the budget ------------------
  {
    Topology topo = BuildTopology(2, base, table_options);
    // Warm the fan-out connections, then kill shard 1.
    if (!topo.coordinator->Query(BoundedSql(0)).ok()) {
      std::fprintf(stderr, "warm-up query failed\n");
      gates_ok = false;
    }
    topo.shards[1].server->Stop();

    Stopwatch watch;
    Result<QueryOutcome> degraded = topo.coordinator->Query(
        "SELECT COUNT(*) FROM photo_obj_all WITHIN 1000 MS");
    const double wall = watch.ElapsedSeconds();
    const bool flagged = degraded.ok() && degraded->partial &&
                         degraded->shards_responded == 1 &&
                         degraded->shards_total == 2;
    // The client budget plus connect slack; nowhere near a hang.
    const bool in_budget = wall < 5.0;
    if (!flagged || !in_budget) {
      std::fprintf(stderr,
                   "killed-shard gate failed: status=%s wall=%.2fs%s\n",
                   degraded.ok() ? "OK" : degraded.status().ToString().c_str(),
                   wall,
                   degraded.ok() && !degraded->partial ? " (not flagged)" : "");
      gates_ok = false;
    } else {
      std::printf(
          "\ndegradation: killed shard -> PARTIAL (1/2 shards) in %.0fms ✓\n",
          wall * 1000.0);
    }
    JsonLine("coord_degraded")
        .Flag("partial_flagged", flagged)
        .Num("wall_ms", wall * 1000.0)
        .Flag("in_budget", in_budget)
        .Emit();
    topo.Stop();
  }

  if (!gates_ok) {
    std::fprintf(stderr, "\ncoord_scaling: GATES FAILED\n");
    return 1;
  }
  std::printf("\ncoord_scaling: all gates passed\n");
  return 0;
}
