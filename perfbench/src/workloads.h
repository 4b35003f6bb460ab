// The four workloads. Each runs in its own process, sets up the system
// in-process on loopback, drives it only through SciborqClient, and checks
// its answers against in-process oracles.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Answer-check failures; any entry makes the run incorrect.
  std::vector<std::string> errors;
  /// Untraced end-to-end metrics (always filled).
  MetricSet end_to_end;
  /// Per-layer metrics (filled by traced runs only).
  MetricSet per_layer;
  /// Work fingerprint JSON of the static workloads; empty otherwise.
  std::string fingerprint;
};

/// explore_focal, drill_base and coord_fanout.
RunResult RunStaticWorkload(const Options& options);
/// ingest_window.
RunResult RunIngestWindow(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
