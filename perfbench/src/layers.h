// Metric catalogue and the per-layer numbers derived from query outcomes.
// Layers are named after the src/ modules (server, exec, api, workload,
// core, column, ingest, storage, retention, coord).
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "api/engine.h"
#include "common.h"
#include "spans.h"

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Every end-to-end metric, printed by every untraced run.
const std::vector<MetricDef>& EndToEndMetrics();
/// Every per-layer metric, printed by every traced run. A layer a workload
/// does not exercise reports 0 and is marked n/a in the human-readable
/// report.
const std::vector<MetricDef>& PerLayerMetrics();

/// Adds every metric of `defs` missing from `set` as 0 (n/a) and reorders
/// `set` into catalogue order; returns the names that were missing.
std::vector<std::string> CompleteMetrics(const std::vector<MetricDef>& defs,
                                         MetricSet* set);

/// Accumulates what the outcomes of a traced phase say about each layer.
struct OutcomeStats {
  int64_t queries = 0;
  int64_t layer_answers = 0;      ///< answered by an impression layer
  int64_t attempts = 0;
  double wasted_attempt_s = 0.0;  ///< attempts that missed the bound
  std::vector<double> base_attempt_ms;
  int64_t base_rows = 0;
  double base_seconds = 0.0;
  int64_t base_morsels = 0;       ///< morsels covered by base attempts
  int64_t layer_rows = 0;
  double layer_seconds = 0.0;
  std::vector<double> server_overhead_ms;
  std::vector<double> fanout_overhead_ms;
  std::vector<double> shard_skew_ms;

  /// Folds one answer with its client-observed round trip.
  void Add(double rtt_seconds, const QueryOutcome& outcome);
};

/// Fills the query-path per-layer metrics (server, exec, api, workload,
/// core, coord) from a traced phase. `coordinator` selects the shard-side
/// spans (`shard*/plan`, ...) for the api/workload layers.
void FillQueryLayerMetrics(const OutcomeStats& stats, const SpanLog& log,
                           bool coordinator, double morsels_skipped,
                           MetricSet* out);

/// Times `reps` rounds of ParseBoundedQuery over `sql` and of an
/// EncodeOutcome + DecodeOutcome round trip over `outcomes`, each call a root
/// span of `log`; sets exec.parse_us and server.codec_us (medians).
void TimeLayerCalls(const std::vector<std::string>& sql,
                    const std::vector<QueryOutcome>& outcomes, int reps,
                    SpanLog* log, MetricSet* out);

/// Prints the self-time table of `log` next to the untraced medians.
void PrintBreakdown(const std::string& workload, const SpanLog& log,
                    double untraced_p50_ms, double traced_p50_ms,
                    double coverage_ratio, double overhead_ratio);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
