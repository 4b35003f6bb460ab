#include "layers.h"

#include <algorithm>
#include <map>

#include "exec/parser.h"
#include "server/wire.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"query_cpu_p50_ms", "ms"},
      {"query_cpu_p90_ms", "ms"},
      {"queries_per_cpu_s", "1/s"},
      {"contract_met_ratio", "ratio"},
      {"error_within_bound_ratio", "ratio"},
      {"success_ratio", "ratio"},
      {"peak_rss_mb", "MB"},
      {"ingest_rows_per_cpu_s", "1/s"},
      {"ingest_cpu_p50_ms", "ms"},
      {"disk_bytes_per_live_byte", "ratio"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = {
      {"server.overhead_ms", "ms"},
      {"server.codec_us", "us"},
      {"server.response_bytes", "count"},
      {"exec.parse_us", "us"},
      {"exec.base_scan_ms", "ms"},
      {"exec.base_rows_per_s", "1/s"},
      {"exec.morsels_skipped_ratio", "ratio"},
      {"api.plan_ms", "ms"},
      {"api.execute_ms", "ms"},
      {"workload.update_us", "us"},
      {"core.layer_answer_ratio", "ratio"},
      {"core.attempts_per_query", "count"},
      {"core.wasted_attempt_ms", "ms"},
      {"core.impression_rows_per_s", "1/s"},
      {"column.encoded_bytes_per_row", "bytes"},
      {"ingest.apply_ms", "ms"},
      {"storage.wal_fsync_ms", "ms"},
      {"storage.checkpoint_ms", "ms"},
      {"storage.checkpoints", "count"},
      {"storage.wal_bytes_per_row", "bytes"},
      {"storage.wal_segments_max", "count"},
      {"retention.rows_evicted", "count"},
      {"retention.evicting_batch_ms", "ms"},
      {"coord.shard_rtt_ms", "ms"},
      {"coord.fanout_overhead_ms", "ms"},
      {"coord.merge_ms", "ms"},
      {"coord.shard_skew_ms", "ms"},
      {"bench.ingest_lag_ms", "ms"},
      {"query_p50_ms", "ms"},
      {"query_p90_ms", "ms"},
      {"query_qps", "1/s"},
      {"ingest_rows_per_s", "1/s"},
      {"ingest_ack_p50_ms", "ms"},
      {"query_p99_ms", "ms"},
      {"query_p99_samples", "count"},
      {"trace.coverage_ratio", "ratio"},
      {"trace.overhead_ratio", "ratio"},
  };
  return defs;
}

std::vector<std::string> CompleteMetrics(const std::vector<MetricDef>& defs,
                                         MetricSet* set) {
  std::vector<std::string> missing;
  MetricSet ordered;
  for (const MetricDef& def : defs) {
    if (set->Has(def.name)) {
      ordered.Set(def.name, set->Get(def.name), def.unit);
    } else {
      ordered.Set(def.name, 0.0, def.unit);
      missing.push_back(def.name);
    }
  }
  *set = std::move(ordered);
  return missing;
}

void OutcomeStats::Add(double rtt_seconds, const QueryOutcome& outcome) {
  ++queries;
  if (!outcome.exact) ++layer_answers;
  attempts += static_cast<int64_t>(outcome.attempts.size());
  for (const sciborq::LayerAttempt& a : outcome.attempts) {
    if (!a.met_error_bound) wasted_attempt_s += a.elapsed_seconds;
    if (a.is_base) {
      base_attempt_ms.push_back(a.elapsed_seconds * 1e3);
      base_rows += a.layer_rows;
      base_seconds += a.elapsed_seconds;
      base_morsels += (a.layer_rows + sciborq::kDefaultMorselRows - 1) /
                      sciborq::kDefaultMorselRows;
    } else if (a.layer_rows > 0) {
      layer_rows += a.layer_rows;
      layer_seconds += a.elapsed_seconds;
    }
  }

  // What the server adds around the engine: the round trip minus the
  // engine's parse span and its execution time.
  double engine_seconds = outcome.elapsed_seconds;
  std::map<std::string, std::pair<double, double>> shard_extent;
  for (const sciborq::PhaseSpan& s : outcome.spans) {
    if (s.name == "parse") engine_seconds += s.duration_seconds;
    const size_t slash = s.name.find('/');
    if (slash == std::string::npos) continue;
    const std::string shard = s.name.substr(0, slash);
    const double end = s.start_seconds + s.duration_seconds;
    auto [it, inserted] =
        shard_extent.emplace(shard, std::make_pair(s.start_seconds, end));
    if (!inserted) {
      it->second.first = std::min(it->second.first, s.start_seconds);
      it->second.second = std::max(it->second.second, end);
    }
  }
  server_overhead_ms.push_back((rtt_seconds - engine_seconds) * 1e3);
  if (!shard_extent.empty()) {
    double slowest = 0.0;
    double fastest = 1e300;
    for (const auto& [shard, extent] : shard_extent) {
      const double len = extent.second - extent.first;
      slowest = std::max(slowest, len);
      fastest = std::min(fastest, len);
    }
    fanout_overhead_ms.push_back((rtt_seconds - slowest) * 1e3);
    shard_skew_ms.push_back((slowest - fastest) * 1e3);
  }
}

void FillQueryLayerMetrics(const OutcomeStats& stats, const SpanLog& log,
                           bool coordinator, double morsels_skipped,
                           MetricSet* out) {
  const double n = static_cast<double>(stats.queries);
  out->Set("server.overhead_ms", Median(stats.server_overhead_ms), "ms");
  out->Set("exec.base_scan_ms", Median(stats.base_attempt_ms), "ms");
  out->Set("exec.base_rows_per_s",
           Ratio(static_cast<double>(stats.base_rows), stats.base_seconds),
           "1/s");
  out->Set("exec.morsels_skipped_ratio",
           Ratio(morsels_skipped, static_cast<double>(stats.base_morsels)),
           "ratio");
  const std::string engine_prefix = coordinator ? "shard*/" : "";
  out->Set("api.plan_ms",
           PercentileOf(log.DurationsMs(engine_prefix + "plan"), 0.90).value,
           "ms");
  out->Set("api.execute_ms", Median(log.DurationsMs(engine_prefix + "execute")),
           "ms");
  out->Set("workload.update_us",
           Median(log.DurationsMs(engine_prefix + "workload")) * 1e3, "us");
  out->Set("core.layer_answer_ratio",
           Ratio(static_cast<double>(stats.layer_answers), n), "ratio");
  out->Set("core.attempts_per_query",
           Ratio(static_cast<double>(stats.attempts), n), "count");
  out->Set("core.wasted_attempt_ms", Ratio(stats.wasted_attempt_s * 1e3, n),
           "ms");
  out->Set("core.impression_rows_per_s",
           Ratio(static_cast<double>(stats.layer_rows), stats.layer_seconds),
           "1/s");
  if (coordinator) {
    out->Set("coord.fanout_overhead_ms", Median(stats.fanout_overhead_ms),
             "ms");
    out->Set("coord.merge_ms", Median(log.DurationsMs("merge")), "ms");
    out->Set("coord.shard_skew_ms", Median(stats.shard_skew_ms), "ms");
  }
}

void TimeLayerCalls(const std::vector<std::string>& sql,
                    const std::vector<QueryOutcome>& outcomes, int reps,
                    SpanLog* log, MetricSet* out) {
  for (int rep = 0; rep < reps; ++rep) {
    for (const std::string& text : sql) {
      log->Time("layer:exec.parse",
                [&] { return sciborq::ParseBoundedQuery(text).ok(); });
    }
    for (const QueryOutcome& outcome : outcomes) {
      log->Time("layer:server.codec", [&] {
        sciborq::WireWriter w;
        sciborq::EncodeOutcome(outcome, &w, sciborq::kWireVersionV4);
        sciborq::WireReader r(w.buffer());
        return sciborq::DecodeOutcome(&r, sciborq::kWireVersionV4).ok();
      });
    }
  }
  out->Set("exec.parse_us", Median(log->DurationsMs("layer:exec.parse")) * 1e3,
           "us");
  out->Set("server.codec_us",
           Median(log->DurationsMs("layer:server.codec")) * 1e3, "us");
}

void PrintBreakdown(const std::string& workload, const SpanLog& log,
                    double untraced_p50_ms, double traced_p50_ms,
                    double coverage_ratio, double overhead_ratio) {
  const std::vector<LayerRow> rows = log.Breakdown();
  double root_ms = 0.0;
  for (const Span& s : log.spans()) {
    if (s.parent < 0 && s.name == "client.query") {
      root_ms += (s.end - s.start) * 1e3;
    }
  }
  Say("-- layer breakdown: %s (self time = span minus its children) --",
      workload.c_str());
  Say("  %-28s %9s %12s %12s %12s %9s", "span", "count", "total_ms",
      "self_ms", "self_us/call", "%query");
  for (const LayerRow& row : rows) {
    const bool in_query = row.name.rfind("layer:", 0) != 0 &&
                          row.name.rfind("ingest.", 0) != 0;
    Say("  %-28s %9lld %12.3f %12.3f %12.2f %9s", row.name.c_str(),
        static_cast<long long>(row.count), row.total_ms, row.self_ms,
        row.count > 0 ? row.self_ms * 1e3 / static_cast<double>(row.count)
                      : 0.0,
        in_query && root_ms > 0.0
            ? sciborq::StrFormat("%.1f", 100.0 * row.self_ms / root_ms).c_str()
            : "-");
  }
  Say("  query p50: untraced %.4f ms, traced %.4f ms", untraced_p50_ms,
      traced_p50_ms);
  Say("  trace.coverage_ratio=%.4f trace.overhead_ratio=%.4f", coverage_ratio,
      overhead_ratio);
}

}  // namespace perfbench
