#include "spans.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <map>
#include <utility>

#include "util/string_util.h"

namespace perfbench {

std::string NormalizeSpanName(const std::string& name) {
  if (name.rfind("shard", 0) != 0) return name;
  size_t i = 5;
  while (i < name.size() && std::isdigit(static_cast<unsigned char>(name[i]))) {
    ++i;
  }
  if (i == 5 || i >= name.size() || name[i] != '/') return name;
  return "shard*" + name.substr(i);
}

int64_t SpanLog::Add(int64_t parent, int64_t request, std::string name,
                     double start, double end) {
  Span span;
  span.id = static_cast<int64_t>(spans_.size());
  span.parent = parent;
  span.request = request;
  span.name = std::move(name);
  span.start = start;
  span.end = std::max(start, end);
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanLog::AddOutcome(int64_t root, const QueryOutcome& outcome) {
  const Span root_span = spans_[static_cast<size_t>(root)];
  const double rtt = root_span.end - root_span.start;
  double extent = 0.0;
  for (const sciborq::PhaseSpan& s : outcome.spans) {
    extent = std::max(extent, s.start_seconds + s.duration_seconds);
  }
  const double origin = root_span.start + std::max(0.0, (rtt - extent) / 2.0);
  auto clamp = [&](double t) {
    return std::clamp(t, root_span.start, root_span.end);
  };

  // Phase spans: top-level names hang off the root, `shardN/...` names off
  // the coordinator's fan-out span.
  std::map<std::string, int64_t> by_name;
  int64_t fanout = -1;
  for (const sciborq::PhaseSpan& s : outcome.spans) {
    if (s.name.find('/') != std::string::npos) continue;
    const double start = clamp(origin + s.start_seconds);
    const int64_t id =
        Add(root, root_span.request, s.name, start,
            clamp(origin + s.start_seconds + s.duration_seconds));
    by_name[s.name] = id;
    if (s.name == "fanout") fanout = id;
  }
  for (const sciborq::PhaseSpan& s : outcome.spans) {
    if (s.name.find('/') == std::string::npos) continue;
    const int64_t parent = fanout >= 0 ? fanout : root;
    const Span& p = spans_[static_cast<size_t>(parent)];
    const double start = std::clamp(origin + s.start_seconds, p.start, p.end);
    const double end = std::clamp(origin + s.start_seconds + s.duration_seconds,
                                  p.start, p.end);
    by_name[s.name] = Add(parent, root_span.request, s.name, start, end);
  }

  // Escalation attempts run back to back inside their execute span
  // (`execute` on one node, `shardN/execute` on a coordinator).
  std::map<std::string, double> cursor;
  for (const sciborq::LayerAttempt& attempt : outcome.attempts) {
    const size_t slash = attempt.layer_name.rfind('/');
    const std::string prefix = slash == std::string::npos
                                   ? std::string()
                                   : attempt.layer_name.substr(0, slash + 1);
    const std::string layer = slash == std::string::npos
                                  ? attempt.layer_name
                                  : attempt.layer_name.substr(slash + 1);
    const auto parent_it = by_name.find(prefix + "execute");
    if (parent_it == by_name.end()) continue;
    const Span& p = spans_[static_cast<size_t>(parent_it->second)];
    auto [it, inserted] = cursor.emplace(prefix, p.start);
    const double start = std::min(it->second, p.end);
    const double end = std::min(start + attempt.elapsed_seconds, p.end);
    it->second = end;
    Add(parent_it->second, root_span.request, prefix + "attempt:" + layer,
        start, end);
  }
}

std::vector<double> SpanLog::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (NormalizeSpanName(s.name) == name) {
      out.push_back((s.end - s.start) * 1e3);
    }
  }
  return out;
}

std::vector<std::vector<int64_t>> SpanLog::ChildIndex() const {
  std::vector<std::vector<int64_t>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) children[static_cast<size_t>(s.parent)].push_back(s.id);
  }
  return children;
}

double SpanLog::CoveredSeconds(const Span& span,
                               const std::vector<int64_t>& children) const {
  std::vector<std::pair<double, double>> intervals;
  intervals.reserve(children.size());
  for (const int64_t c : children) {
    const Span& child = spans_[static_cast<size_t>(c)];
    const double a = std::max(child.start, span.start);
    const double b = std::min(child.end, span.end);
    if (b > a) intervals.emplace_back(a, b);
  }
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double run_start = 0.0;
  double run_end = -1.0;
  for (const auto& [a, b] : intervals) {
    if (run_end < run_start || a > run_end) {
      if (run_end > run_start) covered += run_end - run_start;
      run_start = a;
      run_end = b;
    } else {
      run_end = std::max(run_end, b);
    }
  }
  if (run_end > run_start) covered += run_end - run_start;
  return covered;
}

std::vector<LayerRow> SpanLog::Breakdown() const {
  const std::vector<std::vector<int64_t>> children = ChildIndex();
  std::map<std::string, LayerRow> rows;
  for (const Span& s : spans_) {
    const std::string name = NormalizeSpanName(s.name);
    LayerRow& row = rows[name];
    row.name = name;
    ++row.count;
    const double duration = s.end - s.start;
    row.total_ms += duration * 1e3;
    row.self_ms +=
        (duration - CoveredSeconds(s, children[static_cast<size_t>(s.id)])) *
        1e3;
  }
  std::vector<LayerRow> out;
  for (auto& [name, row] : rows) out.push_back(row);
  std::sort(out.begin(), out.end(), [](const LayerRow& a, const LayerRow& b) {
    return a.self_ms > b.self_ms;
  });
  return out;
}

double SpanLog::CoverageRatio(const std::string& root_name) const {
  const std::vector<std::vector<int64_t>> children = ChildIndex();
  double total = 0.0;
  double covered = 0.0;
  for (const Span& s : spans_) {
    if (s.parent >= 0 || s.name != root_name) continue;
    total += s.end - s.start;
    covered += CoveredSeconds(s, children[static_cast<size_t>(s.id)]);
  }
  return total > 0.0 ? covered / total : 0.0;
}

bool SpanLog::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"id\": %lld, \"parent\": %lld, \"request\": %lld, "
                 "\"name\": %s, \"start_s\": %.9f, \"end_s\": %.9f}\n",
                 static_cast<long long>(s.id), static_cast<long long>(s.parent),
                 static_cast<long long>(s.request), JsonString(s.name).c_str(),
                 s.start, s.end);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
