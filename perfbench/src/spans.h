// The benchmark's outside-in trace. Every client call becomes a root span
// timed by the benchmark; its children come from what the program already
// returns: the QueryOutcome's phase spans (parse/plan/execute/workload, and
// on a coordinator fanout/merge/shardN/...) and its LayerAttempts. Calls the
// benchmark makes into single modules (parser, codec, ingest twin) are roots
// of their own. Spans stay in memory and are written out when the run ends.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "api/engine.h"
#include "common.h"

namespace perfbench {

struct Span {
  int64_t id = 0;
  int64_t parent = -1;   ///< -1 for a root
  int64_t request = 0;   ///< shared by every span of one call
  std::string name;
  double start = 0.0;    ///< seconds on the NowSeconds() clock
  double end = 0.0;
};

/// Per-name totals of a span log: how often the span occurred, its summed
/// duration and its summed self time (duration minus the part of its
/// interval that child spans cover).
struct LayerRow {
  std::string name;
  int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

class SpanLog {
 public:
  int64_t NextRequest() { return ++last_request_; }

  /// Records one span; returns its id.
  int64_t Add(int64_t parent, int64_t request, std::string name, double start,
              double end);

  /// Times `fn` as a root span named `name` and returns its result.
  template <typename Fn>
  auto Time(const std::string& name, Fn&& fn) {
    const int64_t request = NextRequest();
    const double start = NowSeconds();
    auto result = fn();
    Add(-1, request, name, start, NowSeconds());
    return result;
  }

  /// Stitches `outcome`'s phase spans and escalation attempts under `root`
  /// (the client call that returned it). Server-side spans are relative to
  /// the server's own clock origin, so they are placed centred in the round
  /// trip and clamped into it.
  void AddOutcome(int64_t root, const QueryOutcome& outcome);

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations in ms of every span whose normalized name equals `name`
  /// (`shardN/` prefixes normalize to `shard*/`).
  std::vector<double> DurationsMs(const std::string& name) const;

  /// Self-time breakdown by normalized span name, sorted by self time.
  std::vector<LayerRow> Breakdown() const;

  /// Share of the summed duration of roots named `root_name` that their
  /// child spans cover.
  double CoverageRatio(const std::string& root_name) const;

  /// Writes one JSON object per span, one per line.
  bool Write(const std::string& path) const;

 private:
  /// Union length of the children's intervals clipped to `span`.
  double CoveredSeconds(const Span& span,
                        const std::vector<int64_t>& children) const;
  std::vector<std::vector<int64_t>> ChildIndex() const;

  std::vector<Span> spans_;
  int64_t last_request_ = 0;
};

/// `shard3/execute` -> `shard*/execute`; other names unchanged.
std::string NormalizeSpanName(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
