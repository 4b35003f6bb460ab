#ifndef SCIBORQ_BENCH_BENCH_UTIL_H_
#define SCIBORQ_BENCH_BENCH_UTIL_H_

#include <dirent.h>
#include <sched.h>
#include <time.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/result.h"
#include "util/string_util.h"
#include "workload/generator.h"
#include "workload/interest_tracker.h"

namespace sciborq::bench {

/// Unwraps a Result in bench code, aborting with the error on failure.
template <typename T>
T Unwrap(Result<T> result) {
  if (!result.ok()) {
    std::fprintf(stderr, "bench setup failed: %s\n",
                 result.status().ToString().c_str());
    std::abort();
  }
  return std::move(result).value();
}

/// CPU seconds used by every thread of this process so far.
inline double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Confines every thread of this process to one CPU, the highest it may run
/// on; threads started later inherit it from their creator. On a shared
/// virtual machine a request that hops between threads on different vCPUs
/// pays for waking each idle vCPU, and that cost follows the host's load; on
/// one CPU the hops are plain context switches, so the CPU a query costs
/// repeats from run to run. False when the affinity could not be set.
inline bool PinProcessToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return false;
  int cpu = CPU_SETSIZE - 1;
  while (cpu >= 0 && !CPU_ISSET(cpu, &allowed)) --cpu;
  if (cpu < 0) return false;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  DIR* tasks = opendir("/proc/self/task");
  if (tasks == nullptr) return false;
  bool ok = true;
  while (const dirent* entry = readdir(tasks)) {
    if (entry->d_name[0] == '.') continue;
    const auto tid = static_cast<pid_t>(std::atoi(entry->d_name));
    ok = sched_setaffinity(tid, sizeof(one), &one) == 0 && ok;
  }
  closedir(tasks);
  return ok;
}

inline void Header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void Expectation(const std::string& what) {
  std::printf("paper_expectation= %s\n", what.c_str());
}

inline void Measured(const std::string& what) {
  std::printf("measured=          %s\n", what.c_str());
}

/// Machine-readable bench output: one `BENCH_JSON {...}` line per
/// measurement, grep-able from CI logs so the perf trajectory across PRs has
/// data points. Keys are emitted in insertion order; values are JSON
/// numbers/strings/bools.
///
///   JsonLine("server_qps").Int("clients", 4).Num("qps", qps).Emit();
class JsonLine {
 public:
  explicit JsonLine(const std::string& bench) { Str("bench", bench); }

  JsonLine& Num(const std::string& key, double v) {
    // JSON has no Inf/NaN; encode them as strings.
    if (std::isfinite(v)) return Field(key, StrFormat("%.6g", v));
    return Str(key, v != v ? "nan" : (v > 0 ? "inf" : "-inf"));
  }
  JsonLine& Int(const std::string& key, int64_t v) {
    return Field(key, StrFormat("%lld", static_cast<long long>(v)));
  }
  JsonLine& Flag(const std::string& key, bool v) {
    return Field(key, v ? "true" : "false");
  }
  JsonLine& Str(const std::string& key, const std::string& v) {
    std::string escaped = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') escaped += '\\';
      escaped += c;
    }
    escaped += '"';
    return Field(key, escaped);
  }

  void Emit() const { std::printf("BENCH_JSON {%s}\n", fields_.c_str()); }

 private:
  JsonLine& Field(const std::string& key, const std::string& rendered) {
    if (!fields_.empty()) fields_ += ", ";
    fields_ += StrFormat("\"%s\": %s", key.c_str(), rendered.c_str());
    return *this;
  }

  std::string fields_;
};

/// The ra/dec interest tracker geometry used across benches (the paper's
/// attribute pair, §4).
inline InterestTracker MakeRaDecTracker() {
  return Unwrap(InterestTracker::Make(
      {{"ra", 120.0, 3.0, 40}, {"dec", 0.0, 1.5, 40}}));
}

/// A tightly focused two-spot exploration workload (the fGetNearbyObjEq
/// regime: focal mass small relative to impression capacity).
inline ConeWorkloadConfig FocusedWorkload() {
  ConeWorkloadConfig config;
  config.focal_points = {FocalPoint{150.0, 12.0, 0.55, 2.0},
                         FocalPoint{215.0, 40.0, 0.45, 2.0}};
  return config;
}

}  // namespace sciborq::bench

#endif  // SCIBORQ_BENCH_BENCH_UTIL_H_
