// Shared plumbing of the benchmark program: run options, failure handling,
// percentiles with honest sample counts, the metric sink, registry deltas,
// and the per-answer work fingerprint.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "api/engine.h"
#include "util/result.h"
#include "util/status.h"

namespace perfbench {

using sciborq::QueryOutcome;
using sciborq::Result;
using sciborq::Status;

/// Command-line options of one benchmark process (one workload, one seed).
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the span file and temporary database directories.
  std::string out_dir = ".";
};

/// Ends the process with exit code 2: a setup or transport failure means the
/// run produced no result at all.
[[noreturn]] void Fail(const std::string& what);

template <typename T>
T Must(Result<T> result, const char* what) {
  if (!result.ok()) Fail(std::string(what) + ": " + result.status().ToString());
  return std::move(result).value();
}

inline void Must(const Status& status, const char* what) {
  if (!status.ok()) Fail(std::string(what) + ": " + status.ToString());
}

/// Steady-clock seconds since an arbitrary process-wide epoch.
double NowSeconds();

/// CPU seconds consumed so far by every thread of this process. The system
/// under test runs in-process, so the difference across a request is the CPU
/// the client, server, coordinator and shards spent while it was in flight.
/// Unlike a wall-clock interval it excludes time the threads waited for a
/// CPU, including time a virtual machine's CPUs were taken by the host.
double ProcessCpuSeconds();

/// The kernel id of the calling thread.
int CurrentThreadId();

/// CPU seconds consumed so far by thread `tid` of this process.
double ThreadCpuSeconds(int tid);

/// The thread of this process, other than the caller, that consumed the most
/// CPU while `work` ran. With every other thread idle, `work` being requests
/// on one connection finds the server worker serving that connection: a
/// server runs each connection's whole life on one pool worker.
int BusiestOtherThread(const std::function<void()>& work);

/// One order statistic with the sample count behind it: `beyond` is how many
/// samples lie above the reported rank. Fewer than ten beyond makes the
/// value unreliable, and Describe() says so.
struct Percentile {
  double value = 0.0;
  int64_t samples = 0;
  int64_t beyond = 0;
};

/// Nearest-rank percentile (q in (0, 1]) of `values`.
Percentile PercentileOf(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Sum(const std::vector<double>& values);

/// "p90=1.234 ms (n=812, 81 beyond)" plus a flag when fewer than ten
/// samples lie beyond the rank.
std::string Describe(const std::string& label, const Percentile& p,
                     const std::string& unit);

/// The process's peak resident set (VmHWM) in MiB.
double PeakRssMb();

/// Named metrics with units, in insertion order.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const;
  double Get(const std::string& name) const;
  /// `{"name": {"value": v, "unit": "u"}, ...}` with full precision.
  std::string Json() const;
  /// Human-readable "name = value unit" lines.
  void Print(const std::string& title) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// A point-in-time copy of obs::DefaultRegistry()->Samples(), keyed by
/// sample name + rendered labels.
using RegistrySnapshot = std::map<std::string, double>;
RegistrySnapshot TakeRegistrySnapshot();
/// Sum over every label set of sample `name` of (after - before).
double RegistryDelta(const RegistrySnapshot& before,
                     const RegistrySnapshot& after, const std::string& name);
/// Sum over every label set of sample `name` in one snapshot.
double RegistrySum(const RegistrySnapshot& snapshot, const std::string& name);

/// What one answer cost in work, independent of timing. The static
/// workloads require these to repeat exactly for the same query on the same
/// data: a difference means escalation depended on timing.
struct AnswerFacts {
  std::string answered_by;
  int64_t base_rows = 0;      ///< rows of base attempts (scanned rows)
  int64_t matching_rows = 0;  ///< input rows summed over result rows
  int64_t response_bytes = 0; ///< encoded size; filled by ResponseBytes()
  int64_t attempts = 0;

  /// True when `other` did the same work (the response size aside).
  bool SameWork(const AnswerFacts& other) const;
};

/// The work facts of an answer; response_bytes is left 0.
AnswerFacts FactsOf(const QueryOutcome& outcome);

/// Encoded size of an answer, query id excluded: the id is a per-process
/// counter ("q-17" vs "q-1017"); every other field has a timing-independent
/// size.
int64_t ResponseBytes(const QueryOutcome& outcome);

/// The work fingerprint of a run: AnswerFacts summed over a fixed query
/// list, printed with every run so runs of one seed can be compared.
struct Fingerprint {
  std::map<std::string, int64_t> answered_by;
  int64_t queries = 0;
  int64_t base_rows = 0;
  int64_t matching_rows = 0;
  int64_t response_bytes = 0;

  void Add(const AnswerFacts& facts);
  std::string Json() const;
};

/// Escapes a string for inclusion in JSON output.
std::string JsonString(const std::string& s);

/// Prints one human-readable line to stdout and flushes (stdout is a pipe).
void Say(const char* format, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
