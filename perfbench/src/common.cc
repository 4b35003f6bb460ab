#include "common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>

#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include "obs/metrics.h"
#include "server/wire.h"
#include "util/string_util.h"

namespace perfbench {

void Fail(const std::string& what) {
  std::fflush(stdout);
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

double NowSeconds() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

int CurrentThreadId() { return static_cast<int>(syscall(SYS_gettid)); }

double ThreadCpuSeconds(int tid) {
  // The Linux CPU-clock id of a thread (what pthread_getcpuclockid builds):
  // the inverted tid shifted left by three, the per-thread bit (4) and the
  // scheduler clock (2). The kernel serves it for any thread of the caller's
  // process.
  const auto clock = static_cast<clockid_t>(
      (~static_cast<unsigned>(tid) << 3) | 4u | 2u);
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0.0;  // the thread has exited
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

std::map<int, double> CpuByThread() {
  std::map<int, double> cpu;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    const int tid = std::atoi(entry.path().filename().c_str());
    if (tid > 0) cpu[tid] = ThreadCpuSeconds(tid);
  }
  return cpu;
}

}  // namespace

int BusiestOtherThread(const std::function<void()>& work) {
  const std::map<int, double> before = CpuByThread();
  work();
  const std::map<int, double> after = CpuByThread();
  const int self = CurrentThreadId();
  int busiest = -1;
  double most = -1.0;
  for (const auto& [tid, cpu] : after) {
    const auto it = before.find(tid);
    if (tid == self || it == before.end()) continue;
    if (cpu - it->second > most) {
      most = cpu - it->second;
      busiest = tid;
    }
  }
  if (busiest < 0) Fail("no server thread found");
  return busiest;
}

double Sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

Percentile PercentileOf(std::vector<double> values, double q) {
  Percentile p;
  p.samples = static_cast<int64_t>(values.size());
  if (values.empty()) return p;
  const int64_t rank = std::clamp<int64_t>(
      static_cast<int64_t>(std::ceil(q * static_cast<double>(p.samples))), 1,
      p.samples);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  p.value = values[static_cast<size_t>(rank - 1)];
  p.beyond = p.samples - rank;
  return p;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string Describe(const std::string& label, const Percentile& p,
                     const std::string& unit) {
  std::string out = sciborq::StrFormat(
      "%s=%.4f %s (n=%lld, %lld beyond)", label.c_str(), p.value, unit.c_str(),
      static_cast<long long>(p.samples), static_cast<long long>(p.beyond));
  if (p.beyond < 10) out += " [FEW SAMPLES BEYOND: unreliable]";
  return out;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

bool MetricSet::Has(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return true;
  }
  return false;
}

double MetricSet::Get(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return e.value;
  }
  return 0.0;
}

std::string MetricSet::Json() const {
  std::string out = "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    const double v = std::isfinite(e.value) ? e.value : 0.0;
    out += sciborq::StrFormat("%s%s: {\"value\": %.17g, \"unit\": %s}",
                              i == 0 ? "" : ", ", JsonString(e.name).c_str(), v,
                              JsonString(e.unit).c_str());
  }
  return out + "}";
}

void MetricSet::Print(const std::string& title) const {
  Say("-- %s --", title.c_str());
  for (const Entry& e : entries_) {
    Say("  %-32s %14.6g %s", e.name.c_str(), e.value, e.unit.c_str());
  }
}

RegistrySnapshot TakeRegistrySnapshot() {
  RegistrySnapshot snapshot;
  for (const sciborq::obs::StatSample& s :
       sciborq::obs::DefaultRegistry()->Samples()) {
    snapshot[s.name + s.labels] = s.value;
  }
  return snapshot;
}

namespace {

/// True when `key` (name + labels) names a sample of `name`.
bool KeyIsSample(const std::string& key, const std::string& name) {
  return key.size() >= name.size() && key.compare(0, name.size(), name) == 0 &&
         (key.size() == name.size() || key[name.size()] == '{');
}

}  // namespace

double RegistrySum(const RegistrySnapshot& snapshot, const std::string& name) {
  double sum = 0.0;
  for (const auto& [key, value] : snapshot) {
    if (KeyIsSample(key, name)) sum += value;
  }
  return sum;
}

double RegistryDelta(const RegistrySnapshot& before,
                     const RegistrySnapshot& after, const std::string& name) {
  return RegistrySum(after, name) - RegistrySum(before, name);
}

bool AnswerFacts::SameWork(const AnswerFacts& other) const {
  return answered_by == other.answered_by && base_rows == other.base_rows &&
         matching_rows == other.matching_rows && attempts == other.attempts;
}

AnswerFacts FactsOf(const QueryOutcome& outcome) {
  AnswerFacts facts;
  facts.answered_by = outcome.answered_by;
  facts.attempts = static_cast<int64_t>(outcome.attempts.size());
  for (const sciborq::LayerAttempt& attempt : outcome.attempts) {
    if (attempt.is_base) facts.base_rows += attempt.layer_rows;
  }
  for (const sciborq::QueryResultRow& row : outcome.rows) {
    facts.matching_rows += row.input_rows;
  }
  return facts;
}

int64_t ResponseBytes(const QueryOutcome& outcome) {
  sciborq::WireWriter w;
  sciborq::EncodeOutcome(outcome, &w, sciborq::kWireVersionV4);
  return static_cast<int64_t>(w.buffer().size()) -
         static_cast<int64_t>(outcome.query_id.size());
}

void Fingerprint::Add(const AnswerFacts& facts) {
  ++answered_by[facts.answered_by];
  ++queries;
  base_rows += facts.base_rows;
  matching_rows += facts.matching_rows;
  response_bytes += facts.response_bytes;
}

std::string Fingerprint::Json() const {
  std::string hist = "{";
  bool first = true;
  for (const auto& [layer, count] : answered_by) {
    hist += sciborq::StrFormat("%s%s: %lld", first ? "" : ", ",
                               JsonString(layer).c_str(),
                               static_cast<long long>(count));
    first = false;
  }
  hist += "}";
  return sciborq::StrFormat(
      "{\"queries\": %lld, \"answered_by\": %s, \"base_rows\": %lld, "
      "\"matching_rows\": %lld, \"response_bytes\": %lld}",
      static_cast<long long>(queries), hist.c_str(),
      static_cast<long long>(base_rows), static_cast<long long>(matching_rows),
      static_cast<long long>(response_bytes));
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += sciborq::StrFormat("\\u%04x", c);
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void Say(const char* format, ...) {
  va_list args;
  va_start(args, format);
  std::vfprintf(stdout, format, args);
  va_end(args);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

}  // namespace perfbench
