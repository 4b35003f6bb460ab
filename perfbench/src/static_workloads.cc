// The three read-only workloads. Their tables do not change once loaded and
// no query carries a WITHIN term, so every query's escalation path depends
// only on the data and the SQL: the same seed must give the same work, and
// the run checks that it does.
//
//   explore_focal  one client, biased impressions over 600k rows, focal
//                  cones at ERROR 20% (answered almost entirely by layers)
//   drill_base     one client, uniform impressions over 2.4M rows, queries
//                  no impression can serve (base scans do the work)
//   coord_fanout   explore_focal's query stream through a coordinator over
//                  two shard servers holding morsel-aligned halves

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "api/engine.h"
#include "client/client.h"
#include "coord/coordinator.h"
#include "exec/parser.h"
#include "exec/query.h"
#include "layers.h"
#include "server/server.h"
#include "skyserver/catalog.h"
#include "spans.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "workload/generator.h"
#include "workloads.h"

namespace perfbench {
namespace {

using sciborq::AggregateQuery;
using sciborq::BoundedQuery;
using sciborq::Engine;
using sciborq::QueryBounds;
using sciborq::QueryResultRow;
using sciborq::SciborqClient;
using sciborq::SciborqCoordinator;
using sciborq::SciborqServer;
using sciborq::StrFormat;
using sciborq::Table;

constexpr char kTable[] = "photo_obj_all";
/// The sky itself is one fixed synthetic catalog, as a SkyServer warehouse
/// is fixed, and so are the impression samplers' seeds; the run's seed draws
/// the exploration session (training trace, timed queries). A seed-dependent
/// cluster layout or sample would move how much of each cone an impression
/// layer holds, and with it the cost of every query, from seed to seed: with
/// seeded samplers, the share of coord_fanout answers that escalated to base
/// ranged from 13% to 22% over ten seeds.
constexpr uint64_t kSkySeed = 20110109;
constexpr uint64_t kSamplerSeed = 1;
constexpr int64_t kMorselRows = sciborq::kDefaultMorselRows;
constexpr int64_t kLoadBatchRows = 4 * kMorselRows;
constexpr int kTrainingQueries = 2000;
constexpr double kWarmupRoundSeconds = 0.25;
constexpr double kWarmupMinSeconds = 1.0;
constexpr double kWarmupMaxSeconds = 3.0;
/// The engine's default ERROR term, for bounded queries that state none.
constexpr double kDefaultRelativeError = 0.10;

enum class Kind { kExploreFocal, kDrillBase, kCoordFanout };

struct Spec {
  Kind kind;
  int64_t rows;
  int list_size;      ///< distinct timed queries, cycled in order
  int oracle_checks;  ///< bounded answers checked against EXACT oracles
  int exact_checks;   ///< EXACT wire answers checked against RunExact
  /// Setups per run; setup_s is their median. The first setup of a process
  /// is cold, and host noise comes in phases of a second or more, so short
  /// setups are repeated more often.
  int setup_repeats;
};

Spec SpecFor(const std::string& workload) {
  if (workload == "explore_focal") {
    return {Kind::kExploreFocal, 600'000, 1000, 200, 8, 11};
  }
  if (workload == "drill_base") {
    return {Kind::kDrillBase, 2'400'000, 200, 40, 8, 5};
  }
  return {Kind::kCoordFanout, 600'000, 1000, 200, 8, 11};
}

/// An astronomer's two focal spots; cones of about 6 degrees around them.
sciborq::ConeWorkloadConfig FocalWorkload() {
  sciborq::ConeWorkloadConfig config;
  config.focal_points = {sciborq::FocalPoint{150.0, 12.0, 0.55, 2.0},
                         sciborq::FocalPoint{215.0, 40.0, 0.45, 2.0}};
  config.radius_mean = 6.0;
  config.radius_sd = 0.5;
  return config;
}

std::vector<AggregateQuery> FocalQueries(uint64_t seed, int n) {
  sciborq::ConeWorkloadGenerator generator = Must(
      sciborq::ConeWorkloadGenerator::Make(FocalWorkload(), seed), "workload");
  std::vector<AggregateQuery> queries;
  for (int i = 0; i < n; ++i) {
    AggregateQuery q = generator.Next();
    q.table = kTable;
    queries.push_back(std::move(q));
  }
  return queries;
}

/// One timed query: the SQL sent, and the same SQL without its bounds clause
/// (the EXACT oracle's text appends " EXACT" to it).
struct TimedQuery {
  std::string sql;
  std::string body;
};

std::vector<TimedQuery> ExploreQueries(uint64_t seed, int n) {
  QueryBounds bounds;
  bounds.max_relative_error = 0.20;
  std::vector<TimedQuery> out;
  for (const AggregateQuery& q : FocalQueries(seed, n)) {
    out.push_back({sciborq::RenderSql(q, bounds), q.ToString()});
  }
  return out;
}

/// Queries no impression can serve, cycled in fives. Two filter a tenth of
/// the objid range (zone maps prune the rest, objid rising with load order);
/// three are cones, which touch every morsel. With cones the larger share,
/// p50 and p90 both fall among the cones instead of on the edge between the
/// two classes.
std::vector<TimedQuery> DrillQueries(uint64_t seed, int64_t rows, int n) {
  sciborq::Rng rng(seed ^ 0xd7111ba5eULL);
  const int64_t width = rows / 10;
  std::vector<TimedQuery> out;
  for (int i = 0; i < n; ++i) {
    const auto lo = static_cast<long long>(rng.UniformInt(1, rows - width));
    const long long hi = lo + width - 1;
    const double ra = rng.Uniform(140.0, 220.0);
    const double dec = rng.Uniform(15.0, 45.0);
    const double r = rng.Uniform(5.0, 8.0);
    const std::string cone = StrFormat("cone(ra, dec; %.4f, %.4f; r=%.3f)", ra,
                                       dec, r);
    std::string body;
    std::string clause;
    switch (i % 5) {
      case 0:
        body = StrFormat("SELECT COUNT(*), AVG(r) FROM %s WHERE objid BETWEEN "
                         "%lld AND %lld",
                         kTable, lo, hi);
        clause = "ERROR 1%";
        break;
      case 1:
        body = StrFormat("SELECT MIN(redshift), MAX(redshift) FROM %s WHERE %s",
                         kTable, cone.c_str());
        break;
      case 2:
        body = StrFormat("SELECT COUNT(*), SUM(g) FROM %s WHERE objid BETWEEN "
                         "%lld AND %lld GROUP BY obj_class",
                         kTable, lo, hi);
        clause = "EXACT";
        break;
      case 3:
        body = StrFormat("SELECT COUNT(*), AVG(redshift) FROM %s WHERE %s "
                         "GROUP BY obj_class",
                         kTable, cone.c_str());
        clause = "EXACT";
        break;
      default:
        body = StrFormat("SELECT COUNT(*), AVG(g) FROM %s WHERE %s", kTable,
                         cone.c_str());
        clause = "ERROR 1%";
        break;
    }
    out.push_back({clause.empty() ? body : body + " " + clause, body});
  }
  return out;
}

Table SliceRows(const Table& table, int64_t begin, int64_t end) {
  Table out(table.schema());
  out.Reserve(end - begin);
  for (int64_t r = begin; r < end; ++r) out.AppendRowFrom(table, r);
  return out;
}

/// The system under test. Members are declared so that destruction stops
/// the coordinator first, then the servers, then the engines.
struct System {
  std::vector<std::unique_ptr<Engine>> engines;
  std::vector<std::unique_ptr<SciborqServer>> servers;
  std::unique_ptr<SciborqCoordinator> coordinator;
  int port = -1;
};

struct SetupTiming {
  double setup_s = 0.0;
  double ingest_s = 0.0;
  double ingest_cpu_s = 0.0;
  int64_t rows = 0;
  std::vector<double> batch_ms;
  std::vector<double> batch_cpu_ms;
};

/// Table create + load + impression build + server start. Slicing the
/// generated data into batches is input preparation and is not timed.
std::unique_ptr<System> BuildSystem(
    const Spec& spec, const Table& data,
    const std::vector<AggregateQuery>& training, SetupTiming* timing) {
  auto system = std::make_unique<System>();
  auto timed = [&](auto&& fn) {
    const double start = NowSeconds();
    fn();
    timing->setup_s += NowSeconds() - start;
  };
  auto load = [&](Engine* engine, int64_t begin, int64_t end) {
    for (int64_t b = begin; b < end; b += kLoadBatchRows) {
      const Table batch = SliceRows(data, b, std::min(end, b + kLoadBatchRows));
      const double start = NowSeconds();
      const double cpu_start = ProcessCpuSeconds();
      Must(engine->IngestBatch(kTable, batch), "ingest");
      const double cpu_seconds = ProcessCpuSeconds() - cpu_start;
      const double seconds = NowSeconds() - start;
      timing->setup_s += seconds;
      timing->ingest_s += seconds;
      timing->ingest_cpu_s += cpu_seconds;
      timing->rows += batch.num_rows();
      timing->batch_ms.push_back(seconds * 1e3);
      timing->batch_cpu_ms.push_back(cpu_seconds * 1e3);
    }
  };
  auto start_server = [&](Engine* engine) {
    timed([&] {
      system->servers.push_back(std::make_unique<SciborqServer>(engine));
      Must(system->servers.back()->Start(), "server start");
    });
    return system->servers.back()->port();
  };

  const int64_t rows = data.num_rows();
  if (spec.kind == Kind::kCoordFanout) {
    // Two shards holding contiguous, morsel-aligned halves.
    const int64_t morsels = (rows + kMorselRows - 1) / kMorselRows;
    const int64_t split = std::min(rows, (morsels / 2) * kMorselRows);
    const int64_t bounds[3] = {0, split, rows};
    std::vector<sciborq::ShardEndpoint> endpoints;
    for (int s = 0; s < 2; ++s) {
      timed([&] {
        system->engines.push_back(std::make_unique<Engine>());
        sciborq::TableOptions table_options;
        table_options.seed = kSamplerSeed + static_cast<uint64_t>(s);
        Must(system->engines.back()->CreateTable(kTable, data.schema(),
                                                 table_options),
             "create table");
      });
      load(system->engines.back().get(), bounds[s], bounds[s + 1]);
      endpoints.push_back(
          {"127.0.0.1", start_server(system->engines.back().get())});
    }
    timed([&] {
      sciborq::ShardMap map;
      map.SetDefaultShards(endpoints);
      system->coordinator =
          std::make_unique<SciborqCoordinator>(std::move(map));
      Must(system->coordinator->Start(), "coordinator start");
      system->port = system->coordinator->port();
    });
    return system;
  }

  timed([&] {
    system->engines.push_back(std::make_unique<Engine>());
    sciborq::TableOptions table_options;
    table_options.seed = kSamplerSeed;
    if (spec.kind == Kind::kExploreFocal) {
      // Interest tracked on ra/dec: the training trace below biases the
      // impressions the load builds toward the astronomer's focal points.
      table_options.tracked_attributes = {{"ra", 120.0, 3.0, 40},
                                          {"dec", 0.0, 1.5, 40}};
    }
    Must(system->engines.back()->CreateTable(kTable, data.schema(),
                                             table_options),
         "create table");
    for (const AggregateQuery& q : training) {
      Must(system->engines.back()->RecordWorkload(kTable, q),
           "record workload");
    }
  });
  load(system->engines.back().get(), 0, rows);
  system->port = start_server(system->engines.back().get());
  return system;
}

struct PhaseResult {
  std::vector<double> latency_ms;
  std::vector<double> cpu_ms;  ///< process CPU across each round trip
  std::vector<double> done_at_s;  ///< completion time of each latency sample
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t contract_met = 0;
  int64_t work_mismatches = 0;
  double seconds = 0.0;
  double cpu_seconds = 0.0;
  std::string first_failure;
};

/// Closed loop over the query list for `seconds`: the next query is sent
/// when the previous answer arrived. With a log, every call is traced.
PhaseResult RunPhase(SciborqClient* client, const std::vector<std::string>& sql,
                     const std::vector<AnswerFacts>& facts, double seconds,
                     SpanLog* log, OutcomeStats* stats) {
  PhaseResult phase;
  phase.latency_ms.reserve(1 << 16);
  phase.cpu_ms.reserve(1 << 16);
  const double start = NowSeconds();
  const double cpu_start = ProcessCpuSeconds();
  const double deadline = start + seconds;
  size_t i = 0;
  for (double t0 = NowSeconds(); t0 < deadline; t0 = NowSeconds()) {
    const double c0 = ProcessCpuSeconds();
    Result<QueryOutcome> outcome = client->Query(sql[i]);
    const double c1 = ProcessCpuSeconds();
    const double t1 = NowSeconds();
    ++phase.attempted;
    if (!outcome.ok()) {
      ++phase.failed;
      if (phase.first_failure.empty()) {
        phase.first_failure = outcome.status().ToString();
      }
    } else {
      phase.latency_ms.push_back((t1 - t0) * 1e3);
      phase.cpu_ms.push_back((c1 - c0) * 1e3);
      phase.done_at_s.push_back(t1 - start);
      if (outcome->error_bound_met && !outcome->deadline_exceeded) {
        ++phase.contract_met;
      }
      if (!facts[i].SameWork(FactsOf(*outcome))) ++phase.work_mismatches;
      if (log != nullptr) {
        const int64_t root =
            log->Add(-1, log->NextRequest(), "client.query", t0, t1);
        log->AddOutcome(root, *outcome);
        stats->Add(t1 - t0, *outcome);
      }
    }
    i = (i + 1) % sql.size();
  }
  phase.seconds = NowSeconds() - start;
  phase.cpu_seconds = ProcessCpuSeconds() - cpu_start;
  return phase;
}

/// True when every value of every oracle group lies within `bound` relative
/// error of the estimate for the same group.
bool WithinBound(const QueryOutcome& answer,
                 const std::vector<QueryResultRow>& oracle, double bound) {
  for (const QueryResultRow& exact : oracle) {
    const auto it = std::find_if(
        answer.rows.begin(), answer.rows.end(),
        [&](const QueryResultRow& r) { return r.group_key == exact.group_key; });
    if (it == answer.rows.end() || it->values.size() != exact.values.size()) {
      return false;
    }
    for (size_t k = 0; k < exact.values.size(); ++k) {
      const double err = std::fabs(it->values[k] - exact.values[k]);
      if (!(err <= bound * std::fabs(exact.values[k]))) return false;
    }
  }
  return true;
}

/// Coordinator answers fold per-shard Welford states instead of per-morsel
/// ones, so sums and means may differ from one node in the last bits:
/// counts, groups, MIN and MAX must agree exactly, other values to 1e-9.
bool CloseRows(const std::vector<QueryResultRow>& a,
               const std::vector<QueryResultRow>& b) {
  if (a.size() != b.size()) return false;
  for (const QueryResultRow& x : a) {
    const auto it =
        std::find_if(b.begin(), b.end(), [&](const QueryResultRow& y) {
          return y.group_key == x.group_key;
        });
    if (it == b.end() || it->input_rows != x.input_rows ||
        it->values.size() != x.values.size()) {
      return false;
    }
    for (size_t k = 0; k < x.values.size(); ++k) {
      const double diff = std::fabs(x.values[k] - it->values[k]);
      if (!(diff <= 1e-9 * std::max(1.0, std::fabs(x.values[k])))) {
        return false;
      }
    }
  }
  return true;
}

double EncodedBytesRatio(const System& system, double* bytes_per_row) {
  double plain = 0.0;
  double encoded = 0.0;
  double rows = 0.0;
  for (const auto& engine : system.engines) {
    const sciborq::TableInfo info =
        Must(engine->GetTableInfo(kTable), "table info");
    rows += static_cast<double>(info.rows);
    for (const sciborq::ColumnStorageInfo& c : info.storage) {
      plain += static_cast<double>(c.plain_bytes);
      encoded += static_cast<double>(c.encoded_bytes);
    }
  }
  *bytes_per_row = rows > 0.0 ? encoded / rows : 0.0;
  return plain > 0.0 ? encoded / plain : 0.0;
}

void ReportPhase(const char* label, const PhaseResult& phase) {
  Say("%s: %lld queries in %.3f s (%lld failed), %s; %s", label,
      static_cast<long long>(phase.attempted), phase.seconds,
      static_cast<long long>(phase.failed),
      Describe("p50", PercentileOf(phase.latency_ms, 0.50), "ms").c_str(),
      Describe("p90", PercentileOf(phase.latency_ms, 0.90), "ms").c_str());
  Say("  process CPU per query: %s; %s; %.4f CPU s in all",
      Describe("p50", PercentileOf(phase.cpu_ms, 0.50), "ms").c_str(),
      Describe("p90", PercentileOf(phase.cpu_ms, 0.90), "ms").c_str(),
      phase.cpu_seconds);
  // Per-second medians show drift within the phase.
  std::string timeline;
  std::vector<double> second;
  int current = 0;
  for (size_t i = 0; i <= phase.latency_ms.size(); ++i) {
    const int s = i < phase.latency_ms.size()
                      ? static_cast<int>(phase.done_at_s[i])
                      : current + 1;
    if (s != current) {
      timeline += StrFormat(" %.3f", Median(second));
      second.clear();
      current = s;
    }
    if (i < phase.latency_ms.size()) second.push_back(phase.latency_ms[i]);
  }
  Say("  per-second p50 ms:%s", timeline.c_str());
}

}  // namespace

RunResult RunStaticWorkload(const Options& options) {
  const Spec spec = SpecFor(options.workload);
  const bool coordinator = spec.kind == Kind::kCoordFanout;
  RunResult result;

  // -- Inputs, all from the seed (not timed) ---------------------------------
  sciborq::SkyCatalogConfig catalog_config;
  catalog_config.num_rows = spec.rows;
  const sciborq::SkyCatalog catalog =
      Must(sciborq::GenerateSkyCatalog(catalog_config, kSkySeed),
           "generate catalog");
  const Table& data = catalog.photo_obj_all;
  std::vector<AggregateQuery> training;
  if (spec.kind == Kind::kExploreFocal) {
    training = FocalQueries(options.seed ^ 0x7ea1ULL, kTrainingQueries);
  }
  const std::vector<TimedQuery> timed =
      spec.kind == Kind::kDrillBase
          ? DrillQueries(options.seed, spec.rows, spec.list_size)
          : ExploreQueries(options.seed, spec.list_size);
  std::vector<std::string> sql;
  for (const TimedQuery& q : timed) sql.push_back(q.sql);
  Say("workload=%s seed=%llu rows=%lld distinct_queries=%zu",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      static_cast<long long>(data.num_rows()), sql.size());

  // -- Setup, repeated; the last system built here serves the run ----------
  // Host noise comes in phases of a second or more, so the repeats are
  // spread over the run: half now, the rest once the serving system is gone.
  std::vector<double> setup_s;
  std::vector<double> ingest_rate;
  std::vector<double> ingest_cpu_rate;
  std::vector<double> batch_ms;
  std::vector<double> batch_cpu_ms;
  auto setup = [&] {
    SetupTiming timing;
    std::unique_ptr<System> built =
        BuildSystem(spec, data, training, &timing);
    setup_s.push_back(timing.setup_s);
    ingest_rate.push_back(static_cast<double>(timing.rows) / timing.ingest_s);
    ingest_cpu_rate.push_back(static_cast<double>(timing.rows) /
                              timing.ingest_cpu_s);
    batch_ms.insert(batch_ms.end(), timing.batch_ms.begin(),
                    timing.batch_ms.end());
    batch_cpu_ms.insert(batch_cpu_ms.end(), timing.batch_cpu_ms.begin(),
                        timing.batch_cpu_ms.end());
    Say("setup %zu: %.4f s (load %lld rows in %.4f s)", setup_s.size(),
        timing.setup_s, static_cast<long long>(timing.rows), timing.ingest_s);
    return built;
  };
  std::unique_ptr<System> system;
  for (int rep = 0; rep < (spec.setup_repeats + 1) / 2; ++rep) {
    system.reset();
    system = setup();
  }
  auto client = std::make_unique<SciborqClient>(Must(
      SciborqClient::Connect("127.0.0.1", system->port), "client connect"));

  // -- First pass: the work fingerprint and the answers checked later -------
  std::vector<AnswerFacts> facts(sql.size());
  std::vector<QueryOutcome> checked(
      static_cast<size_t>(std::min<int>(spec.oracle_checks, sql.size())));
  Fingerprint fingerprint;
  std::vector<double> first_pass_ms;
  for (size_t i = 0; i < sql.size(); ++i) {
    const double t0 = NowSeconds();
    QueryOutcome outcome = Must(client->Query(sql[i]), "first-pass query");
    first_pass_ms.push_back((NowSeconds() - t0) * 1e3);
    facts[i] = FactsOf(outcome);
    facts[i].response_bytes = ResponseBytes(outcome);
    fingerprint.Add(facts[i]);
    if (i < checked.size()) checked[i] = std::move(outcome);
  }
  result.fingerprint = fingerprint.Json();
  Say("fingerprint %s", result.fingerprint.c_str());

  // -- Warm-up until round medians settle (excluded from timing) -----------
  {
    const double warm_start = NowSeconds();
    std::vector<double> round_medians;
    size_t i = 0;
    for (;;) {
      std::vector<double> round_ms;
      const double round_start = NowSeconds();
      while (NowSeconds() - round_start < kWarmupRoundSeconds) {
        const double t0 = NowSeconds();
        Must(client->Query(sql[i]), "warm-up query");
        round_ms.push_back((NowSeconds() - t0) * 1e3);
        i = (i + 1) % sql.size();
      }
      round_medians.push_back(Median(round_ms));
      const double elapsed = NowSeconds() - warm_start;
      const size_t n = round_medians.size();
      const bool settled =
          n >= 2 && std::fabs(round_medians[n - 1] - round_medians[n - 2]) <=
                        0.05 * round_medians[n - 2];
      if ((elapsed >= kWarmupMinSeconds && settled) ||
          elapsed >= kWarmupMaxSeconds) {
        Say("warm-up: first pass %.3f s (p50 %.4f ms), then %zu rounds in "
            "%.3f s, last round p50 %.4f ms%s",
            std::accumulate(first_pass_ms.begin(), first_pass_ms.end(), 0.0) /
                1e3,
            Median(first_pass_ms), n, elapsed, round_medians.back(),
            settled ? "" : " (cap reached before settling)");
        break;
      }
    }
  }

  // -- Timed phase (untraced) -----------------------------------------------
  const PhaseResult phase =
      RunPhase(client.get(), sql, facts, options.seconds, nullptr, nullptr);
  ReportPhase("timed", phase);
  result.attempted = phase.attempted;
  result.failed = phase.failed;
  if (phase.failed > 0) {
    result.errors.push_back("query failed: " + phase.first_failure);
  }
  if (phase.work_mismatches > 0) {
    result.errors.push_back(StrFormat(
        "%lld answers did different work than the first pass for the same "
        "query (timing-dependent escalation): fingerprint invalid",
        static_cast<long long>(phase.work_mismatches)));
  }

  // -- Traced phase (trace runs only) ----------------------------------------
  SpanLog log;
  OutcomeStats stats;
  PhaseResult traced;
  if (options.trace) {
    const RegistrySnapshot before = TakeRegistrySnapshot();
    traced = RunPhase(client.get(), sql, facts, options.seconds, &log, &stats);
    const RegistrySnapshot after = TakeRegistrySnapshot();
    ReportPhase("traced", traced);
    if (traced.failed > 0 || traced.work_mismatches > 0) {
      result.errors.push_back("traced phase failed or changed work");
    }
    FillQueryLayerMetrics(
        stats, log, coordinator,
        RegistryDelta(before, after, "sciborq_morsels_skipped_total"),
        &result.per_layer);
    if (coordinator) {
      const double count =
          RegistryDelta(before, after, "sciborq_coord_shard_rtt_seconds_count");
      result.per_layer.Set(
          "coord.shard_rtt_ms",
          count > 0.0 ? RegistryDelta(before, after,
                                      "sciborq_coord_shard_rtt_seconds_sum") *
                            1e3 / count
                      : 0.0,
          "ms");
    }

    TimeLayerCalls(sql, checked, 5, &log, &result.per_layer);
  }

  // -- Answer checks (outside the timed phases) -----------------------------
  int64_t exact_checked = 0;
  for (int j = 0; j < spec.exact_checks && j < static_cast<int>(sql.size());
       ++j) {
    const std::string exact_sql = timed[static_cast<size_t>(j)].body + " EXACT";
    const BoundedQuery bounded =
        Must(sciborq::ParseBoundedQuery(exact_sql), "parse");
    const QueryOutcome wire = Must(client->Query(exact_sql), "EXACT query");
    const std::vector<QueryResultRow> oracle =
        Must(sciborq::RunExact(data, bounded.query), "RunExact");
    bool same = false;
    if (coordinator) {
      same = wire.exact && CloseRows(wire.rows, oracle);
    } else {
      const QueryOutcome local =
          Must(system->engines[0]->Query(exact_sql), "in-process EXACT");
      same = sciborq::EquivalentAnswerData(wire, local) && wire.exact &&
             wire.rows == oracle;
    }
    if (!same) {
      result.errors.push_back("EXACT answer differs from the oracle: " +
                              exact_sql);
    }
    ++exact_checked;
  }

  int64_t bound_checked = 0;
  int64_t bound_within = 0;
  for (size_t j = 0; j < checked.size(); ++j) {
    const BoundedQuery bounded =
        Must(sciborq::ParseBoundedQuery(sql[j]), "parse");
    if (bounded.bounds.exact) continue;
    const double bound = bounded.bounds.max_relative_error >= 0.0
                             ? bounded.bounds.max_relative_error
                             : kDefaultRelativeError;
    const std::vector<QueryResultRow> oracle =
        Must(sciborq::RunExact(data, bounded.query), "RunExact");
    ++bound_checked;
    if (WithinBound(checked[j], oracle, bound)) ++bound_within;
  }
  Say("answer checks: %lld EXACT answers vs in-process oracles, %lld of %lld "
      "bounded answers within their stated error",
      static_cast<long long>(exact_checked),
      static_cast<long long>(bound_within),
      static_cast<long long>(bound_checked));

  // -- End-to-end metrics -----------------------------------------------------
  double bytes_per_row = 0.0;
  const double encoded_ratio = EncodedBytesRatio(*system, &bytes_per_row);
  MetricSet& e2e = result.end_to_end;
  e2e.Set("query_cpu_p50_ms", PercentileOf(phase.cpu_ms, 0.50).value, "ms");
  e2e.Set("query_cpu_p90_ms", PercentileOf(phase.cpu_ms, 0.90).value, "ms");
  e2e.Set("queries_per_cpu_s",
          static_cast<double>(phase.cpu_ms.size()) / (Sum(phase.cpu_ms) / 1e3),
          "1/s");
  const double qps =
      static_cast<double>(phase.attempted - phase.failed) / phase.seconds;
  e2e.Set("contract_met_ratio",
          static_cast<double>(phase.contract_met) /
              static_cast<double>(std::max<int64_t>(1, phase.attempted)),
          "ratio");
  e2e.Set("error_within_bound_ratio",
          bound_checked > 0 ? static_cast<double>(bound_within) /
                                  static_cast<double>(bound_checked)
                            : 1.0,
          "ratio");
  e2e.Set("success_ratio",
          static_cast<double>(phase.attempted - phase.failed) /
              static_cast<double>(std::max<int64_t>(1, phase.attempted)),
          "ratio");
  e2e.Set("disk_bytes_per_live_byte", encoded_ratio, "ratio");

  if (options.trace) {
    MetricSet& layer = result.per_layer;
    double response_bytes = 0.0;
    for (const AnswerFacts& f : facts) {
      response_bytes += static_cast<double>(f.response_bytes);
    }
    layer.Set("server.response_bytes",
              response_bytes / static_cast<double>(facts.size()), "count");
    layer.Set("column.encoded_bytes_per_row", bytes_per_row, "bytes");
    layer.Set("query_p50_ms", PercentileOf(phase.latency_ms, 0.50).value,
              "ms");
    layer.Set("query_p90_ms", PercentileOf(phase.latency_ms, 0.90).value,
              "ms");
    layer.Set("query_qps", qps, "1/s");
    const Percentile p99 = PercentileOf(phase.latency_ms, 0.99);
    layer.Set("query_p99_ms", p99.value, "ms");
    layer.Set("query_p99_samples", static_cast<double>(p99.samples), "count");
    const double coverage = log.CoverageRatio("client.query");
    const double overhead =
        qps > 0.0 ? (static_cast<double>(traced.attempted - traced.failed) /
                     traced.seconds) /
                        qps
                  : 0.0;
    layer.Set("trace.coverage_ratio", coverage, "ratio");
    layer.Set("trace.overhead_ratio", overhead, "ratio");
    Say("%s", Describe("untraced p99", p99, "ms").c_str());
    Say("%s", Describe("untraced max", PercentileOf(phase.latency_ms, 1.0),
                       "ms")
                  .c_str());
    PrintBreakdown(options.workload, log,
                   PercentileOf(phase.latency_ms, 0.5).value,
                   PercentileOf(traced.latency_ms, 0.5).value, coverage,
                   overhead);
    const std::string path = StrFormat(
        "%s/spans-%s-%llu.jsonl", options.out_dir.c_str(),
        options.workload.c_str(), static_cast<unsigned long long>(options.seed));
    if (!log.Write(path)) Fail("cannot write " + path);
    Say("spans written to %s (%zu spans)", path.c_str(), log.spans().size());
  }
  // -- The remaining setups, then peak memory after every phase ------------
  client.reset();
  system.reset();
  while (static_cast<int>(setup_s.size()) < spec.setup_repeats) setup();
  e2e.Set("setup_s", Median(setup_s), "s");
  e2e.Set("ingest_rows_per_cpu_s", Median(ingest_cpu_rate), "1/s");
  e2e.Set("ingest_cpu_p50_ms", Median(batch_cpu_ms), "ms");
  if (options.trace) {
    // The setup engines are ephemeral (no WAL): their load batches are the
    // ingest layer's in-memory apply.
    result.per_layer.Set("ingest.apply_ms", Median(batch_ms), "ms");
    result.per_layer.Set("ingest_rows_per_s", Median(ingest_rate), "1/s");
    result.per_layer.Set("ingest_ack_p50_ms", Median(batch_ms), "ms");
  }
  e2e.Set("peak_rss_mb", PeakRssMb(), "MB");
  return result;
}

}  // namespace perfbench
