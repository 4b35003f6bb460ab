// perfbench: one SciBORQ workload, one seed, one process.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir D]
//
// Prints a human-readable report, then one `PERFBENCH_RESULT {...}` line
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1), the work fingerprint and any answer-check failures. Exits 1
// when an answer check failed, 2 when the run could not be carried out.

#include <cstdlib>
#include <cstring>
#include <string>

#include <sched.h>

#include "common.h"
#include "layers.h"
#include "util/string_util.h"
#include "workloads.h"

namespace perfbench {
namespace {

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "explore_focal|drill_base|ingest_window|coord_fanout --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

Options ParseOptions(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0)) {
        Usage("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace " + value);
      options.trace = value == "1";
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (options.workload != "explore_focal" && options.workload != "drill_base" &&
      options.workload != "ingest_window" && options.workload != "coord_fanout") {
    Usage("unknown workload '" + options.workload + "'");
  }
  return options;
}

/// Confines the process, and every thread it starts later, to one CPU: the
/// highest one it may run on (CPU 0 tends to take the most device
/// interrupts). On a shared virtual machine a request that hops
/// between threads on different vCPUs pays for waking each idle vCPU, and
/// that cost follows the host's load; on one CPU the hops are plain context
/// switches, so the CPU a request costs repeats from run to run.
void PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    Fail("sched_getaffinity failed");
  }
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) {
      Fail("sched_setaffinity failed");
    }
    Say("pinned to CPU %d", cpu);
    return;
  }
  Fail("no CPU to run on");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options options = ParseOptions(argc, argv);
  PinToOneCpu();
  RunResult result = options.workload == "ingest_window"
                         ? RunIngestWindow(options)
                         : RunStaticWorkload(options);

  std::vector<std::string> na = CompleteMetrics(EndToEndMetrics(),
                                                &result.end_to_end);
  result.end_to_end.Print("end-to-end metrics (untraced)");
  for (const std::string& name : na) {
    result.errors.push_back("end-to-end metric not measured: " + name);
  }
  if (options.trace) {
    na = CompleteMetrics(PerLayerMetrics(), &result.per_layer);
    result.per_layer.Print("per-layer metrics (traced run)");
    if (!na.empty()) {
      std::string list;
      for (const std::string& name : na) list += " " + name;
      Say("  n/a on %s (reported as 0):%s", options.workload.c_str(),
          list.c_str());
    }
  }

  const bool correct = result.errors.empty();
  for (const std::string& error : result.errors) {
    Say("ANSWER CHECK FAILED: %s", error.c_str());
  }
  std::string errors = "[";
  for (size_t i = 0; i < result.errors.size(); ++i) {
    errors += (i == 0 ? "" : ", ") + JsonString(result.errors[i]);
  }
  errors += "]";
  Say("PERFBENCH_RESULT {\"correct\": %s, \"attempted\": %lld, \"failed\": "
      "%lld, \"metrics\": %s, \"fingerprint\": %s, \"errors\": %s}",
      correct ? "true" : "false", static_cast<long long>(result.attempted),
      static_cast<long long>(result.failed),
      (options.trace ? result.per_layer : result.end_to_end).Json().c_str(),
      result.fingerprint.empty() ? "null" : result.fingerprint.c_str(),
      errors.c_str());
  return correct ? 0 : 1;
}
