// Measurement harness of the mulink benchmark: sample statistics with the
// percentile rule, open-loop tick accounting, in-memory spans, the metric
// report and the environment stamp. Nothing here calls into mulink; the
// workloads (workloads.cpp, layers.cpp) wrap their public calls with it.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Nanoseconds on the steady clock since the first call in the process.
double NowNs();

// Wait until NowNs() reaches `ns`: sleep for all but the last 200 us, then
// yield, so the wake-up is not late by the scheduler's sleep granularity.
void SleepUntilNs(double ns);

// ---- sample statistics ----------------------------------------------------

// Nearest-rank quantile: the smallest sample with at least q*n samples at or
// below it. q in [0, 1]; 0 for an empty set.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

// Samples strictly beyond the nearest-rank q-quantile of n samples.
std::size_t SamplesBeyond(std::size_t n, double q);

// The percentile rule: the highest of the standard percentiles (99.9, 99,
// 95, 90, 75, 50) that still has at least `min_beyond` samples beyond it
// among n samples; 0 when not even the median qualifies.
double TailPercentile(std::size_t n, std::size_t min_beyond = 10);

// Median and quartiles of a set of per-pair ratios.
struct Spread {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};
Spread Quartiles(const std::vector<double>& values);

// ---- open-loop accounting -------------------------------------------------

// One tick of an open-loop generator: when it was due, when the generator
// actually started it, and when its work completed. All in ns.
struct TickRecord {
  double due_ns = 0.0;
  double start_ns = 0.0;
  double done_ns = 0.0;
};

struct OpenLoopSummary {
  std::vector<double> latency_ms;  // done - due: a stall charges later ticks
  std::vector<double> busy_ms;     // done - start
  double max_late_ms = 0.0;        // worst start - due
  std::size_t misses = 0;          // done after the next tick was due
};

OpenLoopSummary SummarizeOpenLoop(const std::vector<TickRecord>& ticks,
                                  double period_ns);

// Drive `ticks` ticks on a fixed schedule that never slows down for the
// system: tick k is due at start + k * period whatever happened before it.
// `now()` reads the clock in ns, `sleep_until(ns)` waits for it, `work(k)`
// runs the tick. Templated so the tests can drive it with a fake clock.
template <class Now, class SleepUntil, class Work>
std::vector<TickRecord> RunOpenLoop(std::size_t ticks, double period_ns,
                                    Now now, SleepUntil sleep_until,
                                    Work work) {
  std::vector<TickRecord> records(ticks);
  const double t0 = now();
  for (std::size_t k = 0; k < ticks; ++k) {
    const double due = t0 + static_cast<double>(k) * period_ns;
    if (now() < due) sleep_until(due);
    records[k].due_ns = due;
    records[k].start_ns = now();
    work(k);
    records[k].done_ns = now();
  }
  return records;
}

// ---- spans ----------------------------------------------------------------

inline constexpr std::uint32_t kNoSpan = 0xffffffffu;

struct Span {
  std::uint32_t name = 0;         // interned by SpanRecorder::Intern
  std::uint32_t parent = kNoSpan; // index of the enclosing span
  std::uint64_t id = 0;           // shared by the spans of one tick / link
  double start_ns = 0.0;
  double end_ns = 0.0;
  std::uint64_t items = 1;        // calls or items the span covers
};

// Fixed-capacity in-memory span store. Begin/End cost two clock reads and a
// store; nothing is allocated after construction. When disabled every call
// is a no-op returning kNoSpan. Spans past capacity are counted, not kept.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t capacity = 0);

  void set_enabled(bool enabled) { enabled_ = enabled && capacity_ > 0; }

  std::uint32_t Intern(std::string_view name);
  std::uint32_t Begin(std::uint32_t name, std::uint64_t id,
                      std::uint32_t parent = kNoSpan);
  void End(std::uint32_t span, std::uint64_t items = 1);
  // End a span under a name chosen after the call returned (an engine call
  // is an ingest or a decision only once it has run).
  void EndAs(std::uint32_t span, std::uint32_t name, std::uint64_t items = 1);
  // Record a span whose bounds were measured by the caller.
  void Add(std::uint32_t name, std::uint64_t id, std::uint32_t parent,
           double start_ns, double end_ns, std::uint64_t items = 1);

  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

  // Duration minus the union of the direct children's intervals (clipped
  // to the span), one value per span.
  std::vector<double> SelfTimesNs() const;

  // Self time per item, in ns, of every span with this name; `self` is
  // SelfTimesNs().
  std::vector<double> PerItemSelfNs(std::string_view name,
                                    const std::vector<double>& self) const;

  // One line per span: id name parent start_ns end_ns items.
  void Write(std::ostream& out) const;

 private:
  std::size_t capacity_ = 0;
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::uint64_t dropped_ = 0;
};

// ---- report ---------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

// Result of one benchmark run, printed as the last line of stdout.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  // Human-readable lines printed before the JSON result.
  std::vector<std::string> notes;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  // Account a correctness check over `attempted_ops` operations, of which
  // `failed_ops` failed; any failure clears `correct`.
  void Check(const std::string& what, std::uint64_t attempted_ops,
             std::uint64_t failed_ops);
  void Note(const std::string& line) { notes.push_back(line); }

  // {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
  std::string ResultJson() const;
};

std::string FormatDouble(double value);

// ---- environment stamp ----------------------------------------------------

struct EnvStamp {
  std::size_t nproc = 0;  // CPUs this process may run on
  std::string backend;    // kernels::ActiveBackend()
  bool obs_compiled = false;
  std::string build_type;
  std::uint64_t seed = 0;
  std::string workload;
  bool trace = false;

  std::string Json() const;
};

// CPUs in this process's affinity mask (what `nproc` prints).
std::size_t AvailableCpus();

}  // namespace perfbench
