// Socket-path throughput: N remote clients hammering sciborq over the wire
// (encode -> TCP loopback -> frame decode -> parse -> escalation -> encode
// -> decode) vs the same workload calling Engine::Query in-process. The gap
// between the two is the cost of the network face; the acceptance bar is ≥ 4
// concurrent clients with zero protocol errors and remote answers
// bit-identical to in-process ones.
//
// Emits BENCH_JSON lines for the perf trajectory. Exits non-zero on any
// protocol error or a remote/in-process answer mismatch, so CI can run it
// as a correctness smoke as well as a perf probe.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "bench/bench_util.h"
#include "client/client.h"
#include "obs/metrics.h"
#include "server/server.h"
#include "skyserver/catalog.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

using namespace sciborq;
using sciborq::bench::Header;
using sciborq::bench::JsonLine;
using sciborq::bench::PairedMedianRatio;
using sciborq::bench::PairedRatio;
using sciborq::bench::PinProcessToOneCpu;
using sciborq::bench::ProcessCpuSeconds;
using sciborq::bench::Unwrap;

namespace {

constexpr int64_t kBaseRows = 100'000;
constexpr int kQueriesPerClient = 200;

std::string MakeSql(int index) {
  const double ra = 130.0 + 10.0 * (index % 10);
  const double dec = 5.0 + 5.0 * (index % 11);
  return StrFormat(
      "SELECT COUNT(*), AVG(r) FROM photo_obj_all "
      "WHERE cone(ra, dec; %g, %g; r=8) ERROR 25%%",
      ra, dec);
}

// Template-heavy remote workload: same box query, shifting focal points.
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

/// N in-process client threads (the PR-2 baseline shape).
double RunInProcess(Engine* engine, int threads, int64_t* failures) {
  std::atomic<int64_t> failed{0};
  std::vector<std::thread> clients;
  Stopwatch watch;
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([engine, t, &failed] {
      for (int i = 0; i < kQueriesPerClient; ++i) {
        if (!engine->Query(MakeSql(t * kQueriesPerClient + i)).ok()) {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  const double seconds = watch.ElapsedSeconds();
  *failures = failed.load();
  return static_cast<double>(threads) * kQueriesPerClient / seconds;
}

/// N remote clients, each with its own TCP connection.
double RunRemote(int port, int threads, int64_t* failures) {
  std::atomic<int64_t> failed{0};
  std::vector<std::thread> clients;
  Stopwatch watch;
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([port, t, &failed] {
      Result<SciborqClient> client = SciborqClient::Connect("127.0.0.1", port);
      if (!client.ok()) {
        failed.fetch_add(kQueriesPerClient, std::memory_order_relaxed);
        return;
      }
      for (int i = 0; i < kQueriesPerClient; ++i) {
        if (!client->Query(MakeSql(t * kQueriesPerClient + i)).ok()) {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  const double seconds = watch.ElapsedSeconds();
  *failures = failed.load();
  return static_cast<double>(threads) * kQueriesPerClient / seconds;
}

}  // namespace

int main() {
  Header("server_qps: bounded SQL over TCP loopback vs in-process");

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

  ServerOptions server_options;
  server_options.port = 0;  // any free port
  server_options.max_connections = 16;
  SciborqServer server(&engine, server_options);
  if (Status st = server.Start(); !st.ok()) {
    std::fprintf(stderr, "server start: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("base: %lld rows; server on port %d; %d hw threads\n\n",
              static_cast<long long>(kBaseRows), server.port(),
              static_cast<int>(std::thread::hardware_concurrency()));

  // Correctness gate first: a remote bounded query must return the same
  // answer (estimates, answered_by, escalation trace) as Engine::Query for
  // the same SQL on the same table state.
  {
    const std::string sql = MakeSql(3);
    Result<SciborqClient> client =
        SciborqClient::Connect("127.0.0.1", server.port());
    if (!client.ok()) {
      std::fprintf(stderr, "connect: %s\n", client.status().ToString().c_str());
      return 1;
    }
    const Result<QueryOutcome> remote = client->Query(sql);
    const Result<QueryOutcome> local = engine.Query(sql);
    if (!remote.ok() || !local.ok()) {
      std::fprintf(stderr, "equivalence probe failed: remote=%s local=%s\n",
                   remote.status().ToString().c_str(),
                   local.status().ToString().c_str());
      return 1;
    }
    if (!EquivalentAnswers(*remote, *local)) {
      std::fprintf(stderr, "MISMATCH: remote answer differs from in-process\n"
                           "remote: %s\nlocal:  %s\n",
                   remote->ToString().c_str(), local->ToString().c_str());
      return 1;
    }
    std::printf("equivalence: remote == in-process (answered_by=%s) ✓\n\n",
                remote->answered_by.c_str());
  }

  std::printf("%-14s %-10s %12s %10s\n", "path", "clients", "qps", "failures");
  bool any_failures = false;
  for (const int threads : {1, 2, 4, 8}) {
    int64_t failures = 0;
    const double qps = RunInProcess(&engine, threads, &failures);
    std::printf("%-14s %-10d %12.0f %10lld\n", "in-process", threads, qps,
                static_cast<long long>(failures));
    JsonLine("server_qps_baseline")
        .Int("clients", threads)
        .Num("qps", qps)
        .Int("failures", failures)
        .Emit();
    any_failures = any_failures || failures != 0;
  }
  for (const int threads : {1, 2, 4, 8}) {
    int64_t failures = 0;
    const double qps = RunRemote(server.port(), threads, &failures);
    std::printf("%-14s %-10d %12.0f %10lld\n", "tcp-loopback", threads, qps,
                static_cast<long long>(failures));
    JsonLine("server_qps")
        .Int("clients", threads)
        .Num("qps", qps)
        .Int("failures", failures)
        .Int("base_rows", kBaseRows)
        .Emit();
    any_failures = any_failures || failures != 0;
  }

  // Prepared vs reparse over the wire: one connection, the SQL string per
  // call vs a bound handle. Both pay the same round trip and execution; the
  // prepared path ships a smaller payload and skips server-side parsing.
  Header("remote prepared vs reparse: one box template");
  {
    constexpr int kWarmup = 100;
    constexpr int kIters = 1500;
    Result<SciborqClient> client =
        SciborqClient::Connect("127.0.0.1", server.port());
    if (!client.ok()) {
      std::fprintf(stderr, "connect: %s\n", client.status().ToString().c_str());
      return 1;
    }
    const Result<StatementInfo> stmt = client->Prepare(kBoxTemplate);
    if (!stmt.ok()) {
      std::fprintf(stderr, "prepare: %s\n", stmt.status().ToString().c_str());
      return 1;
    }
    // Correctness gate: the remote bound execution must carry the same
    // answer as the in-process fully-rendered query.
    for (int i = 0; i < 5; ++i) {
      const Result<QueryOutcome> remote =
          client->Execute(stmt->handle, BoxParams(i));
      const Result<QueryOutcome> local = engine.Query(BoxSql(i));
      if (!remote.ok() || !local.ok() ||
          !EquivalentAnswers(*remote, *local)) {
        std::fprintf(stderr,
                     "MISMATCH: remote Execute != in-process Query(rendered) "
                     "at i=%d\n",
                     i);
        return 1;
      }
    }
    for (int i = 0; i < kWarmup; ++i) {
      (void)client->Query(BoxSql(i));
      (void)client->Execute(stmt->handle, BoxParams(i));
    }
    Stopwatch reparse_watch;
    for (int i = 0; i < kIters; ++i) {
      if (!client->Query(BoxSql(i)).ok()) {
        std::fprintf(stderr, "remote reparse query failed at i=%d\n", i);
        return 1;
      }
    }
    const double reparse_qps = kIters / reparse_watch.ElapsedSeconds();
    Stopwatch prepared_watch;
    for (int i = 0; i < kIters; ++i) {
      if (!client->Execute(stmt->handle, BoxParams(i)).ok()) {
        std::fprintf(stderr, "remote execute failed at i=%d\n", i);
        return 1;
      }
    }
    const double prepared_qps = kIters / prepared_watch.ElapsedSeconds();
    std::printf("reparse:  %10.0f qps (SQL string per call)\n"
                "prepared: %10.0f qps (bound handle per call)\n"
                "speedup:  %10.2fx\n",
                reparse_qps, prepared_qps, prepared_qps / reparse_qps);
    JsonLine("server_prepared_vs_reparse")
        .Num("prepared_qps", prepared_qps)
        .Num("reparse_qps", reparse_qps)
        .Num("speedup", prepared_qps / reparse_qps)
        .Int("iters", kIters)
        .Emit();
    if (Status st = client->CloseStatement(stmt->handle); !st.ok()) {
      std::fprintf(stderr, "close: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  // Metrics overhead gate over the full wire path (per-opcode histograms,
  // byte counters, engine metrics, spans on every outcome). One remote
  // client; obs::SetEnabled(false) is the baseline. Each side is measured
  // in queries per CPU-second of the whole process (client and server
  // threads), with the process pinned to one CPU: wall-clock QPS on an
  // unpinned process moved with the host's load by more than the bound. The
  // gate reads the median ratio over many short adjacent pairs
  // (bench_util.h, PairedMedianRatio).
  Header("metrics overhead: instrumented vs baseline (obs disabled)");
  {
    constexpr int kIters = 100;
    constexpr int kPairs = 201;
    if (!PinProcessToOneCpu()) {
      std::fprintf(stderr, "could not pin the process to one CPU\n");
      return 1;
    }
    Result<SciborqClient> client =
        SciborqClient::Connect("127.0.0.1", server.port());
    if (!client.ok()) {
      std::fprintf(stderr, "connect: %s\n", client.status().ToString().c_str());
      return 1;
    }
    const PairedRatio overhead = PairedMedianRatio(
        kPairs, [&client](bool instrumented, int pair) -> double {
          obs::SetEnabled(instrumented);
          const double cpu_start = ProcessCpuSeconds();
          for (int i = 0; i < kIters; ++i) {
            if (!client->Query(MakeSql(pair * kIters + i)).ok()) return -1.0;
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
    JsonLine("server_metrics_overhead")
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

  server.Stop();
  std::printf("\nserver totals: %lld queries, %lld connections, %lld protocol "
              "errors\n",
              static_cast<long long>(server.queries_served()),
              static_cast<long long>(server.connections_accepted()),
              static_cast<long long>(server.protocol_errors()));
  if (any_failures || server.protocol_errors() != 0) {
    std::fprintf(stderr, "FAILED: query failures or protocol errors\n");
    return 1;
  }
  return 0;
}
