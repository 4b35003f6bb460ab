// Distributed fan-out scaling: a SciborqCoordinator over 1/2/4 shard
// servers on TCP loopback vs the same data on a single node.
//
// Four gates, all hard (non-zero exit on failure):
//   1. Equivalence — the 2-shard merged EXACT answer matches the
//      single-node answer bit for bit (each 16384-row shard slice is
//      exactly one morsel, so the coordinator's Welford merge replays the
//      single node's own fold tree).
//   2. Throughput — bounded queries through the coordinator complete with
//      zero failures at every shard count; QPS goes out as BENCH_JSON.
//   3. Bound — on the 2- and 4-shard bounded streams, merged answers touch
//      a shard's base data no more often than the single node's answers
//      touch its base, and every merged answer flagged error_bound_met is
//      within the query's ERROR term of EXACT (at least 50 such answers
//      checked per stream).
//   4. Degradation — killing one of two shards mid-flight yields a flagged
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
constexpr double kBoundedError = 0.25;
constexpr int kMinMetChecked = 50;

/// The bounded stream's query `index` without its bounds clause.
std::string BoxQuery(int index) {
  const double ra = 130.0 + 10.0 * (index % 10);
  const double dec = 5.0 + 5.0 * (index % 11);
  return StrFormat(
      "SELECT COUNT(*), AVG(r) FROM photo_obj_all "
      "WHERE ra >= %g AND ra <= %g AND dec >= %g AND dec <= %g",
      ra - 20.0, ra + 20.0, dec - 20.0, dec + 20.0);
}

std::string BoundedSql(int index) {
  return StrFormat("%s ERROR %g%%", BoxQuery(index).c_str(),
                   kBoundedError * 100.0);
}

bool TouchedBase(const QueryOutcome& outcome) {
  for (const LayerAttempt& attempt : outcome.attempts) {
    if (attempt.is_base) return true;
  }
  return false;
}

/// Every value of `answer` within `bound` (relative) of `exact`'s.
bool WithinBound(const QueryOutcome& answer, const QueryOutcome& exact,
                 double bound) {
  if (answer.rows.size() != exact.rows.size()) return false;
  for (size_t r = 0; r < exact.rows.size(); ++r) {
    const std::vector<double>& want = exact.rows[r].values;
    const std::vector<double>& got = answer.rows[r].values;
    if (got.size() != want.size()) return false;
    for (size_t k = 0; k < want.size(); ++k) {
      if (!(std::fabs(got[k] - want[k]) <= bound * std::fabs(want[k]))) {
        return false;
      }
    }
  }
  return true;
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

  // The single node's answers to the bounded stream: how many touch its
  // base, and the EXACT oracle of each query.
  int64_t single_base_hits = 0;
  std::vector<QueryOutcome> oracles;
  for (int i = 0; i < kQueriesPerTopology; ++i) {
    if (TouchedBase(Unwrap(single.Query(BoundedSql(i))))) ++single_base_hits;
    oracles.push_back(Unwrap(single.Query(BoxQuery(i) + " EXACT")));
  }

  // -- Gates 2 and 3: the bounded stream at 1/2/4 shards -------------------
  std::printf("\n%-10s %12s %10s %10s %12s\n", "shards", "qps", "failures",
              "base_hits", "met_within");
  for (const int n : {1, 2, 4}) {
    Topology topo = BuildTopology(n, base, table_options);
    int64_t failures = 0;
    std::vector<QueryOutcome> outcomes;
    Stopwatch watch;
    for (int i = 0; i < kQueriesPerTopology; ++i) {
      Result<QueryOutcome> outcome = topo.coordinator->Query(BoundedSql(i));
      if (!outcome.ok() || outcome->partial) {
        failures++;
        continue;
      }
      outcomes.push_back(std::move(outcome).value());
    }
    const double seconds = watch.ElapsedSeconds();
    const double qps = kQueriesPerTopology / seconds;
    int64_t base_hits = 0;
    int64_t met_checked = 0;
    int64_t met_within = 0;
    for (size_t i = 0; i < outcomes.size(); ++i) {
      if (TouchedBase(outcomes[i])) ++base_hits;
      if (!outcomes[i].error_bound_met) continue;
      ++met_checked;
      if (WithinBound(outcomes[i], oracles[i], kBoundedError)) ++met_within;
    }
    std::printf("%-10d %12.0f %10lld %10lld %6lld/%-5lld\n", n, qps,
                static_cast<long long>(failures),
                static_cast<long long>(base_hits),
                static_cast<long long>(met_within),
                static_cast<long long>(met_checked));
    JsonLine("coord_scaling")
        .Int("shards", n)
        .Num("qps", qps)
        .Int("failures", failures)
        .Int("base_rows", kBaseRows)
        .Int("base_hits", base_hits)
        .Int("single_base_hits", single_base_hits)
        .Int("met_checked", met_checked)
        .Int("met_within", met_within)
        .Emit();
    if (failures != 0) {
      std::fprintf(stderr, "%lld bounded queries failed at %d shards\n",
                   static_cast<long long>(failures), n);
      gates_ok = false;
    }
    if (n >= 2 && base_hits > single_base_hits) {
      std::fprintf(stderr,
                   "bound gate: %lld merged answers touched a shard's base at "
                   "%d shards, the single node %lld\n",
                   static_cast<long long>(base_hits), n,
                   static_cast<long long>(single_base_hits));
      gates_ok = false;
    }
    if (n >= 2 && (met_checked < kMinMetChecked || met_within != met_checked)) {
      std::fprintf(stderr,
                   "bound gate: %lld of %lld answers flagged met at %d shards "
                   "are within %g%% of EXACT (at least %d must be checked)\n",
                   static_cast<long long>(met_within),
                   static_cast<long long>(met_checked), n,
                   kBoundedError * 100.0, kMinMetChecked);
      gates_ok = false;
    }
    topo.Stop();
  }

  // -- Gate 4: killing a shard degrades within the budget ------------------
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
