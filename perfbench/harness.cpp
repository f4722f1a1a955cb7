#include "harness.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <thread>

namespace perfbench {

double NowNs() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double, std::nano>(Clock::now() - origin)
      .count();
}

void SleepUntilNs(double ns) {
  const double coarse = ns - NowNs() - 200e3;
  if (coarse > 0.0) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(
        static_cast<std::int64_t>(coarse)));
  }
  while (NowNs() < ns) std::this_thread::yield();
}

// ---- sample statistics ----------------------------------------------------

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t n = values.size();
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

std::size_t SamplesBeyond(std::size_t n, double q) {
  if (n == 0) return 0;
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return n - rank;
}

double TailPercentile(std::size_t n, std::size_t min_beyond) {
  for (double q : {0.999, 0.99, 0.95, 0.90, 0.75, 0.50}) {
    if (SamplesBeyond(n, q) >= min_beyond) return q;
  }
  return 0.0;
}

Spread Quartiles(const std::vector<double>& values) {
  Spread s;
  s.q1 = Quantile(values, 0.25);
  s.median = Quantile(values, 0.5);
  s.q3 = Quantile(values, 0.75);
  return s;
}

// ---- open-loop accounting -------------------------------------------------

OpenLoopSummary SummarizeOpenLoop(const std::vector<TickRecord>& ticks,
                                  double period_ns) {
  OpenLoopSummary s;
  s.latency_ms.reserve(ticks.size());
  s.busy_ms.reserve(ticks.size());
  for (const auto& t : ticks) {
    s.latency_ms.push_back((t.done_ns - t.due_ns) * 1e-6);
    s.busy_ms.push_back((t.done_ns - t.start_ns) * 1e-6);
    const double late_ms = std::max(0.0, t.start_ns - t.due_ns) * 1e-6;
    s.max_late_ms = std::max(s.max_late_ms, late_ms);
    if (t.done_ns > t.due_ns + period_ns) ++s.misses;
  }
  return s;
}

// ---- spans ----------------------------------------------------------------

SpanRecorder::SpanRecorder(std::size_t capacity) : capacity_(capacity) {
  spans_.reserve(capacity);
}

std::uint32_t SpanRecorder::Intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint32_t SpanRecorder::Begin(std::uint32_t name, std::uint64_t id,
                                  std::uint32_t parent) {
  if (!enabled_) return kNoSpan;
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return kNoSpan;
  }
  Span span;
  span.name = name;
  span.parent = parent;
  span.id = id;
  span.start_ns = NowNs();
  spans_.push_back(span);
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void SpanRecorder::End(std::uint32_t span, std::uint64_t items) {
  if (span == kNoSpan) return;
  spans_[span].end_ns = NowNs();
  spans_[span].items = items;
}

void SpanRecorder::EndAs(std::uint32_t span, std::uint32_t name,
                         std::uint64_t items) {
  if (span == kNoSpan) return;
  spans_[span].name = name;
  End(span, items);
}

void SpanRecorder::Add(std::uint32_t name, std::uint64_t id,
                       std::uint32_t parent, double start_ns, double end_ns,
                       std::uint64_t items) {
  if (!enabled_) return;
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  spans_.push_back(Span{name, parent, id, start_ns, end_ns, items});
}

std::vector<double> SpanRecorder::SelfTimesNs() const {
  // Children of each span, as (start, end) clipped to the parent.
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const auto& s : spans_) {
    if (s.parent == kNoSpan || s.parent >= spans_.size()) continue;
    const auto& p = spans_[s.parent];
    const double lo = std::max(s.start_ns, p.start_ns);
    const double hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[s.parent].emplace_back(lo, hi);
  }
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& c = children[i];
    std::sort(c.begin(), c.end());
    double covered = 0.0;
    double run_lo = 0.0;
    double run_hi = -1.0;
    for (const auto& [lo, hi] : c) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[i] = (spans_[i].end_ns - spans_[i].start_ns) - covered;
  }
  return self;
}

std::vector<double> SpanRecorder::PerItemSelfNs(
    std::string_view name, const std::vector<double>& self) const {
  std::vector<double> out;
  std::uint32_t index = kNoSpan;
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) index = static_cast<std::uint32_t>(i);
  }
  if (index == kNoSpan) return out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != index || spans_[i].items == 0) continue;
    out.push_back(self[i] / static_cast<double>(spans_[i].items));
  }
  return out;
}

void SpanRecorder::Write(std::ostream& out) const {
  out << "# id name parent start_ns end_ns items (parent -1 = root)\n";
  char buf[160];
  for (const auto& s : spans_) {
    std::snprintf(buf, sizeof buf, "%llu %s %lld %.0f %.0f %llu\n",
                  static_cast<unsigned long long>(s.id),
                  names_[s.name].c_str(),
                  s.parent == kNoSpan ? -1LL : static_cast<long long>(s.parent),
                  s.start_ns, s.end_ns,
                  static_cast<unsigned long long>(s.items));
    out << buf;
  }
}

// ---- report ---------------------------------------------------------------

std::string FormatDouble(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

void Report::Check(const std::string& what, std::uint64_t attempted_ops,
                   std::uint64_t failed_ops) {
  attempted += attempted_ops;
  failed += failed_ops;
  if (failed_ops > 0) {
    correct = false;
    Note("FAILED " + what + ": " + std::to_string(failed_ops) + " of " +
         std::to_string(attempted_ops));
  }
}

std::string Report::ResultJson() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    out << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
        << FormatDouble(metric.value) << ", \"unit\": \"" << metric.unit
        << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

// ---- environment stamp ----------------------------------------------------

std::string EnvStamp::Json() const {
  std::ostringstream out;
  out << "{\"nproc\": " << nproc << ", \"backend\": \"" << backend
      << "\", \"obs_compiled\": " << (obs_compiled ? "true" : "false")
      << ", \"build_type\": \"" << build_type << "\", \"seed\": " << seed
      << ", \"workload\": \"" << workload << "\", \"trace\": "
      << (trace ? 1 : 0) << "}";
  return out.str();
}

std::size_t AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace perfbench
