#include "workloads.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string>

#include "obs/metrics.h"
#include "serve/serve.h"

namespace perfbench {

namespace serve = mulink::serve;
namespace obs = mulink::obs;

namespace {

constexpr double kPeriodNs = 20e6;       // one frame per link every 20 ms
// setup_s is the median of the set-up that starts the run and kSetups more.
// A shared host's speed drifts over seconds, so set-ups run back to back
// cluster and the cluster moves between runs (quartile spread over ten
// seeds 16-21%); the repeats are therefore spread over the measured phase.
constexpr std::size_t kSetups = 21;

// Paces the repeated set-ups: one is due at the first block boundary after
// each 1/kSetups of the measured phase. Those still missing when the phase
// ends run right after it. A traced run reports no setup_s and keeps its
// measured phase free of set-ups.
class SetupPacer {
 public:
  explicit SetupPacer(const RunOptions& options)
      : enabled_(!options.trace),
        step_ns_(options.seconds * 1e9 / static_cast<double>(kSetups)),
        next_ns_(NowNs() + step_ns_) {}
  // Whether a set-up is due now, `done` set-ups having run.
  bool Due(std::size_t done) {
    if (!enabled_ || done > kSetups || NowNs() < next_ns_) return false;
    next_ns_ += step_ns_;
    return true;
  }

 private:
  bool enabled_;
  double step_ns_;
  double next_ns_;
};

constexpr std::size_t kMinTailSamples = 1000;  // p99 with 10 samples beyond

std::string Fixed(double value, int digits = 3) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, value);
  return buf;
}

std::string Samples(const std::vector<double>& values) {
  std::string out = std::to_string(values.size()) + ":";
  for (double v : values) {
    out += ' ';
    out += Fixed(v, 4);
  }
  return out;
}

// The per-workload metric lines printed above the JSON result.
void NoteMetric(Report& report, const std::string& name, double value,
                const std::string& unit, const std::string& detail = "") {
  report.Note(name + " = " + FormatDouble(value) + " " + unit +
              (detail.empty() ? "" : "  (" + detail + ")"));
}

// The median of a latency sample set is the end-to-end metric; its p99,
// which the percentile rule must reach (at least ten samples beyond), is
// printed beside it but not gated: on a shared host one stalled CPU moves
// it by tens of percent between runs.
void SetLatency(Report& report, const std::vector<double>& latency_ms,
                const std::string& name, const std::string& what) {
  const double tail = TailPercentile(latency_ms.size());
  report.Check("enough " + what + " samples for a p99 with 10 beyond it", 1,
               tail >= 0.99 ? 0 : 1);
  report.Set("latency_ms.p50", Quantile(latency_ms, 0.5), "ms");
  NoteMetric(report, name + ".p50", Quantile(latency_ms, 0.5), "ms",
             std::to_string(latency_ms.size()) + " " + what + "s");
  NoteMetric(report, name + ".p99", Quantile(latency_ms, 0.99), "ms",
             std::to_string(SamplesBeyond(latency_ms.size(), 0.99)) + " beyond");
}

// ---- fleet plumbing ---------------------------------------------------------

serve::ServeConfig FleetConfig(std::size_t roster_cap, bool decision_log) {
  serve::ServeConfig config;
  config.num_shards = 2;  // demux + 2 workers = 3 threads
  config.queue_capacity = 256;
  config.policy = serve::BackPressure::kBlock;
  config.max_resident_per_shard = roster_cap;
  config.collect_decision_log = decision_log;
  config.stream.window_packets = kWindow;
  config.stream.hop_packets = 1;
  config.stream.use_hmm = false;
  config.stream.guard_enabled = false;
  return config;
}

struct FleetService {
  std::shared_ptr<const core::Detector> detector;
  std::vector<double> empty_scores;
  std::unique_ptr<serve::ServeCore> core;
  std::uint32_t profile = 0;
};

FleetService StartFleet(const FleetInputs& in, const serve::ServeConfig& config) {
  auto cal = CalibrateScheme(in.calibration, in.band, in.array,
                             core::DetectionScheme::kSubcarrierAndPathWeighting);
  FleetService s;
  s.detector = std::make_shared<const core::Detector>(std::move(cal.detector));
  s.empty_scores = std::move(cal.empty_scores);
  s.core = std::make_unique<serve::ServeCore>(config);
  s.profile = s.core->RegisterProfile(s.detector, s.empty_scores);
  s.core->Start();
  return s;
}

// Serve-vs-engine comparison: `log` is the serve core's merged decision log
// (link-id-major), `expected[i]` the engine's decisions for link_ids[i]
// (ascending). Returns the number of decisions that differ or are missing.
std::uint64_t CountMismatches(const std::vector<serve::DecisionRecord>& log,
                              const std::vector<std::uint64_t>& link_ids,
                              const std::vector<std::vector<core::PresenceDecision>>& expected) {
  std::uint64_t total = 0;
  for (const auto& e : expected) total += e.size();
  std::uint64_t mismatches = 0;
  std::size_t pos = 0;
  for (std::size_t i = 0; i < link_ids.size(); ++i) {
    for (const auto& want : expected[i]) {
      if (pos >= log.size() || log[pos].link_id != link_ids[i] ||
          !SameDecision(log[pos].decision, want)) {
        ++mismatches;
      }
      ++pos;
    }
  }
  if (log.size() > total) mismatches += log.size() - total;
  return mismatches;
}

// Depth percentile from the ShardStats log2 buckets of every shard: the
// upper edge of the bucket where the merged CDF crosses q.
double DepthPercentile(const std::vector<serve::ShardStats>& stats, double q) {
  std::uint64_t buckets[serve::ShardStats::kDepthBuckets] = {};
  std::uint64_t samples = 0;
  for (const auto& s : stats) {
    for (std::size_t b = 0; b < serve::ShardStats::kDepthBuckets; ++b) {
      buckets[b] += s.depth_buckets[b];
    }
    samples += s.depth_samples;
  }
  if (samples == 0) return 0.0;
  const auto target = static_cast<std::uint64_t>(q * static_cast<double>(samples));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < serve::ShardStats::kDepthBuckets; ++b) {
    seen += buckets[b];
    if (seen > target) return b == 0 ? 1.0 : static_cast<double>((1u << (b + 1)) - 1);
  }
  return static_cast<double>(1u << serve::ShardStats::kDepthBuckets);
}

// Per-layer serve metrics common to both fleet workloads.
void SetServeLayers(const serve::ServeCore& core, const SpanRecorder& spans,
                    const std::vector<double>& self,
                    const std::vector<std::uint64_t>& shard_frames,
                    double measured_s, std::uint64_t admits,
                    std::uint64_t evicts, Report& report) {
  const auto submit_ns = spans.PerItemSelfNs("serve.submit", self);
  const auto drain_ns = spans.PerItemSelfNs("serve.drain", self);
  report.Set("serve.submit_us.p50", Quantile(submit_ns, 0.5) * 1e-3, "us");
  report.Set("serve.submit_us.p99", Quantile(submit_ns, 0.99) * 1e-3, "us");
  report.Set("serve.drain_ms.p50", Quantile(drain_ns, 0.5) * 1e-6, "ms");
  report.Set("serve.drain_ms.p99", Quantile(drain_ns, 0.99) * 1e-6, "ms");
  const auto stats = core.Stats();
  report.Set("serve.queue_depth.p50.shardstats", DepthPercentile(stats, 0.5), "count");
  report.Set("serve.queue_depth.p99.shardstats", DepthPercentile(stats, 0.99), "count");
  const double total = static_cast<double>(
      std::accumulate(shard_frames.begin(), shard_frames.end(), std::uint64_t{0}));
  const double most = static_cast<double>(
      *std::max_element(shard_frames.begin(), shard_frames.end()));
  report.Set("serve.shard_skew",
             total > 0 ? most / (total / static_cast<double>(shard_frames.size())) : 0.0,
             "ratio");
  report.Set("serve.admits_per_s", static_cast<double>(admits) / measured_s, "1/s");
  report.Set("serve.evicts_per_s", static_cast<double>(evicts) / measured_s, "1/s");
  const auto metrics = core.AggregateMetrics();
  report.Set("serve.frames_dropped",
             static_cast<double>(metrics.Get(obs::Counter::kFramesDropped)), "count");
  report.Set("serve.frames_rejected",
             static_cast<double>(metrics.Get(obs::Counter::kFramesRejected)), "count");
}

// Every frame handed to Submit under kBlock must reach its shard.
void CheckDelivery(const serve::ServeCore& core, std::uint64_t frames,
                   Report& report) {
  const auto metrics = core.AggregateMetrics();
  report.Check("frames delivered under kBlock (none dropped or rejected)", frames,
               metrics.Get(obs::Counter::kFramesDropped) +
                   metrics.Get(obs::Counter::kFramesRejected));
}

// A link's frames as an engine replay sees them: `count` frames from
// `first`, renumbered so the stream is monotone for the frame guard.
std::vector<wifi::CsiPacket> MaterializeStream(const FleetInputs& in,
                                               std::uint64_t link,
                                               std::uint64_t first,
                                               std::size_t count) {
  std::vector<wifi::CsiPacket> out;
  out.reserve(count);
  for (std::size_t t = 0; t < count; ++t) {
    out.push_back(in.Frame(link, first + t));
    out.back().sequence = t;
    out.back().timestamp_s = static_cast<double>(t) * 0.02;
  }
  return out;
}

}  // namespace

// ---- shared definitions -------------------------------------------------------

Calibrated CalibrateScheme(const std::vector<wifi::CsiPacket>& calibration,
                           const wifi::BandPlan& band,
                           const wifi::UniformLinearArray& array,
                           core::DetectionScheme scheme) {
  core::DetectorConfig config;
  config.scheme = scheme;
  config.window_packets = kWindow;
  auto detector = core::Detector::Calibrate(calibration, band, array, config);
  std::vector<std::vector<wifi::CsiPacket>> windows;
  for (std::size_t start = 0; start + kWindow <= calibration.size(); start += kWindow) {
    windows.emplace_back(calibration.begin() + static_cast<std::ptrdiff_t>(start),
                         calibration.begin() + static_cast<std::ptrdiff_t>(start + kWindow));
  }
  detector.CalibrateThreshold(windows);
  Calibrated out{std::move(detector), {}};
  core::DetectorScratch scratch;
  for (const auto& w : windows) {
    out.empty_scores.push_back(
        out.detector.Score(std::span<const wifi::CsiPacket>(w), scratch));
  }
  return out;
}

bool SameDecision(const core::PresenceDecision& a, const core::PresenceDecision& b) {
  return std::memcmp(&a.timestamp_s, &b.timestamp_s, sizeof(double)) == 0 &&
         std::memcmp(&a.score, &b.score, sizeof(double)) == 0 &&
         std::memcmp(&a.posterior, &b.posterior, sizeof(double)) == 0 &&
         a.occupied == b.occupied && a.degraded == b.degraded;
}

void SetOverhead(Report& report, const std::string& prefix,
                 const std::vector<double>& plain,
                 const std::vector<double>& treated) {
  std::vector<double> pct;
  for (std::size_t i = 0; i < std::min(plain.size(), treated.size()); ++i) {
    if (plain[i] > 0.0) pct.push_back((treated[i] / plain[i] - 1.0) * 100.0);
  }
  const Spread s = Quartiles(pct);
  report.Set(prefix, s.median, "%");
  report.Set(prefix + ".q1", s.q1, "%");
  report.Set(prefix + ".q3", s.q3, "%");
  report.Note(prefix + " median " + Fixed(s.median, 2) + " % [q1 " +
              Fixed(s.q1, 2) + ", q3 " + Fixed(s.q3, 2) + "] over " +
              std::to_string(pct.size()) + " alternating pairs");
}

// ---- fleet_paced ----------------------------------------------------------------

void RunFleetPaced(const RunOptions& options, SpanRecorder& spans, Report& report) {
  constexpr std::size_t kLinks = 512;
  constexpr std::size_t kProbeTicks = 50;
  constexpr std::size_t kVerifyTicks = 40;
  constexpr std::size_t kTraceSegment = 50;  // ticks per traced/untraced half
  const auto inputs = GenerateFleet(options.seed, 2000, 4096);
  const auto config = FleetConfig(0, false);

  // Set-up: calibrate and start the core. The warm fill of all 512 windows
  // that follows is timed apart (warm_fill_s): it runs through the serve
  // hand-off, whose sleep-polling made its time swing by over 50% between
  // sets of runs on a shared host, which set-up time must not.
  std::vector<double> setup_s;
  const auto setup = [&] {
    const double t0 = NowNs();
    FleetService s = StartFleet(inputs, config);
    setup_s.push_back((NowNs() - t0) * 1e-9);
    return s;
  };
  FleetService svc = setup();
  auto& core = *svc.core;
  const double fill_t0 = NowNs();
  for (std::uint64_t t = 0; t < kWindow; ++t) {
    for (std::uint64_t link = 0; link < kLinks; ++link) {
      core.Submit(link, svc.profile, inputs.Frame(link, t));
    }
  }
  core.Drain();
  const double warm_fill_s = (NowNs() - fill_t0) * 1e-9;

  // Open loop: every link emits one frame per 20 ms tick; the tick is
  // submitted whole, then drained. Latency is charged from the due time.
  std::size_t ticks =
      std::max(kMinTailSamples, static_cast<std::size_t>(options.seconds * 50.0));
  if (options.trace) {
    // Traced and untraced segments alternate; every traced tick adds a tick,
    // a drain and one submit span per link.
    const std::size_t pair_spans = kTraceSegment * (kLinks + 2);
    ticks = std::min(ticks, 2 * kTraceSegment * (kWorkloadSpanBudget / pair_spans));
  }
  const auto n_tick = spans.Intern("tick");
  const auto n_submit = spans.Intern("serve.submit");
  const auto n_drain = spans.Intern("serve.drain");
  std::vector<std::uint64_t> shard_frames(core.num_shards(), 0);
  std::vector<std::size_t> shard_of(kLinks);
  for (std::uint64_t link = 0; link < kLinks; ++link) shard_of[link] = core.ShardOf(link);
  const auto before = core.AggregateMetrics();
  const double measure_t0 = NowNs();
  SetupPacer setups(options);
  // The schedule runs in segments of kTraceSegment ticks; a due set-up runs
  // between two segments, and the next segment's schedule starts after it.
  std::vector<TickRecord> records;
  for (std::size_t first = 0; first < ticks; first += kTraceSegment) {
    if (first > 0 && setups.Due(setup_s.size())) setup();
    spans.set_enabled(options.trace && (first / kTraceSegment) % 2 == 1);
    const auto segment = RunOpenLoop(
        std::min(kTraceSegment, ticks - first), kPeriodNs, NowNs, SleepUntilNs,
        [&](std::size_t i) {
          const std::uint64_t k = first + i;
          const std::uint64_t t = kWindow + k;
          const auto tick = spans.Begin(n_tick, k);
          for (std::uint64_t link = 0; link < kLinks; ++link) {
            const auto s = spans.Begin(n_submit, k, tick);
            core.Submit(link, svc.profile, inputs.Frame(link, t));
            spans.End(s);
            ++shard_frames[shard_of[link]];
          }
          const auto d = spans.Begin(n_drain, k, tick);
          core.Drain();
          spans.End(d);
          spans.End(tick, kLinks);
        });
    records.insert(records.end(), segment.begin(), segment.end());
  }
  spans.set_enabled(false);
  const double measured_s = (NowNs() - measure_t0) * 1e-9;
  const auto summary = SummarizeOpenLoop(records, kPeriodNs);
  const auto after = core.AggregateMetrics();
  CheckDelivery(core, (kWindow + ticks) * kLinks, report);

  if (!options.trace) {
    SetLatency(report, summary.latency_ms, "tick_ms", "tick");
    // The gated latency is the tick's service time, from its actual start:
    // latency from the due time (tick_ms, printed above) also carries the
    // lateness that host stalls leave on the following ticks, which moves
    // its median by over 10% between runs on a shared host.
    const double busy_p50 = Median(summary.busy_ms);
    report.Set("latency_ms.p50", busy_p50, "ms");
    NoteMetric(report, "tick_busy_ms.p50", busy_p50, "ms", "start to Drain() return");
    // Decisions per second while a tick is being served (hop 1: one per
    // frame), from the median tick's service time.
    report.Set("throughput_per_s", static_cast<double>(kLinks) / (busy_p50 * 1e-3), "1/s");
    NoteMetric(report, "tick_miss_ratio",
               static_cast<double>(summary.misses) / static_cast<double>(ticks), "ratio");
    NoteMetric(report, "warm_fill_s", warm_fill_s, "s", "512 links x 25 frames");

    // Capacity: the largest fleet (64-link steps) whose p50 tick stays
    // under the period while the generator does not fall behind.
    std::vector<std::uint64_t> next_t;
    next_t.assign(kLinks, kWindow + ticks);
    std::size_t resident = kLinks;
    std::string ladder;
    const auto probe = [&](std::size_t n) {
      if (n > resident) {
        next_t.resize(n, 0);
        for (std::uint64_t t = 0; t < kWindow; ++t) {
          for (std::uint64_t link = resident; link < n; ++link) {
            core.Submit(link, svc.profile, inputs.Frame(link, next_t[link]++));
          }
        }
        core.Drain();
        resident = n;
      }
      const auto recs = RunOpenLoop(kProbeTicks, kPeriodNs, NowNs, SleepUntilNs,
                                    [&](std::size_t) {
                                      for (std::uint64_t link = 0; link < n; ++link) {
                                        core.Submit(link, svc.profile,
                                                    inputs.Frame(link, next_t[link]++));
                                      }
                                      core.Drain();
                                    });
      const auto s = SummarizeOpenLoop(recs, kPeriodNs);
      // A backlog that grows leaves the generator ever later; one stalled
      // tick does not, so the median over the last ten ticks decides.
      std::vector<double> tail_late;
      for (std::size_t k = kProbeTicks - 10; k < kProbeTicks; ++k) {
        tail_late.push_back(recs[k].start_ns - recs[k].due_ns);
      }
      const bool held =
          Median(s.latency_ms) < kPeriodNs * 1e-6 && Median(tail_late) < kPeriodNs;
      ladder += ' ';
      ladder += std::to_string(n);
      ladder += held ? ":ok" : ":over";
      return held;
    };
    const double p50 = std::max(Quantile(summary.latency_ms, 0.5), 0.05);
    const auto round64 = [](double n) {
      return std::clamp<std::size_t>(static_cast<std::size_t>(n / 64.0) * 64, 64, 16384);
    };
    std::size_t lo = 0;             // largest fleet that held the rate
    std::size_t hi = 16384 + 64;    // smallest fleet that did not
    std::size_t n = round64(static_cast<double>(kLinks) * 20.0 / p50 * 0.75);
    for (int step = 0; step < 10 && hi - lo > 64; ++step) {
      if (probe(n)) {
        lo = n;
        n = hi > 16384 ? round64(static_cast<double>(n) * 1.25 + 64) : round64((lo + hi) / 2.0);
      } else {
        hi = n;
        n = lo == 0 ? round64(static_cast<double>(n) * 0.75) : round64((lo + hi) / 2.0);
      }
      if (n <= lo || n >= hi) n = lo + 64;
    }
    core.Drain();
    const std::size_t max_links = lo;
    NoteMetric(report, "max_links_50hz", static_cast<double>(max_links), "links",
               "64-link steps; probes" + ladder);
  } else {
    const auto self = spans.SelfTimesNs();
    SetServeLayers(core, spans, self, shard_frames, measured_s,
                   after.Get(obs::Counter::kLinksAdmitted) -
                       before.Get(obs::Counter::kLinksAdmitted),
                   after.Get(obs::Counter::kLinksEvicted) -
                       before.Get(obs::Counter::kLinksEvicted),
                   report);
    report.Set("generator.late_ms.max", summary.max_late_ms, "ms");
    report.Set("gate.tick_miss_ratio",
               static_cast<double>(summary.misses) / static_cast<double>(ticks), "ratio");
    std::vector<double> plain, traced;
    for (std::size_t seg = 0; (seg + 2) * kTraceSegment <= ticks; seg += 2) {
      const auto block_median = [&](std::size_t s) {
        return Median(std::vector<double>(
            summary.busy_ms.begin() + static_cast<std::ptrdiff_t>(s * kTraceSegment),
            summary.busy_ms.begin() + static_cast<std::ptrdiff_t>((s + 1) * kTraceSegment)));
      };
      plain.push_back(block_median(seg));
      traced.push_back(block_median(seg + 1));
    }
    SetOverhead(report, "trace.overhead_pct", plain, traced);
  }
  svc.core->Stop();
  while (setup_s.size() <= kSetups) setup();
  if (!options.trace) {
    report.Set("setup_s", Median(setup_s), "s");
    NoteMetric(report, "setup_s", Median(setup_s), "s", "median of " + Samples(setup_s));
  }

  // Verification: the same frames through a logged core and through one
  // single-thread engine must give bit-identical decisions.
  const auto vconfig = FleetConfig(0, true);
  serve::ServeCore vcore(vconfig);
  const auto vprofile = vcore.RegisterProfile(svc.detector, svc.empty_scores);
  vcore.Start();
  for (std::uint64_t t = 0; t < kWindow + kVerifyTicks; ++t) {
    for (std::uint64_t link = 0; link < kLinks; ++link) {
      vcore.Submit(link, vprofile, inputs.Frame(link, t));
    }
  }
  vcore.Stop();
  const auto log = vcore.MergedDecisionLog();
  core::SensingEngine engine;
  engine.UseSharedScratch();
  std::vector<std::uint64_t> ids(kLinks);
  std::vector<std::size_t> slots(kLinks);
  for (std::uint64_t link = 0; link < kLinks; ++link) {
    ids[link] = link;
    slots[link] = engine.AddLink(svc.detector, svc.empty_scores, vconfig.stream);
  }
  std::vector<std::vector<core::PresenceDecision>> expected(kLinks);
  std::uint64_t decisions = 0, vacant = 0;
  for (std::uint64_t t = 0; t < kWindow + kVerifyTicks; ++t) {
    for (std::uint64_t link = 0; link < kLinks; ++link) {
      if (auto d = engine.ProcessPacket(slots[link], inputs.Frame(link, t))) {
        expected[link].push_back(*d);
        ++decisions;
        vacant += d->occupied ? 0 : 1;
      }
    }
  }
  const auto mismatches = CountMismatches(log, ids, expected);
  report.Check("serve decisions bit-identical to the single-thread engine replay",
               decisions, mismatches);
  const double mismatch_ratio =
      static_cast<double>(mismatches) / static_cast<double>(std::max<std::uint64_t>(decisions, 1));
  const double vacant_share =
      static_cast<double>(vacant) / static_cast<double>(std::max<std::uint64_t>(decisions, 1));
  if (!options.trace) {
    NoteMetric(report, "decision_mismatch_ratio", mismatch_ratio, "ratio",
               std::to_string(decisions) + " decisions compared");
    // Every fleet frame is empty-room, so balanced accuracy reduces to the
    // share of decisions that read "vacant".
    report.Set("balanced_accuracy", vacant_share, "ratio");
    NoteMetric(report, "balanced_accuracy", vacant_share, "ratio", "vacant frames only");
  } else {
    report.Set("gate.decision_mismatch_ratio", mismatch_ratio, "ratio");
    LayerInputs layers;
    layers.groups.push_back({&inputs.calibration, &inputs.band, &inputs.array, {}});
    for (std::uint64_t link = 0; link < 32; ++link) {
      layers.groups[0].streams.push_back(
          MaterializeStream(inputs, link, 0, kWindow + 100));
    }
    layers.stream = vconfig.stream;
    layers.shared_profile = true;
    layers.tick_major = true;
    MeasureLayers(layers, spans, report);
  }
}

// ---- fleet_churn ----------------------------------------------------------------

void RunFleetChurn(const RunOptions& options, SpanRecorder& spans, Report& report) {
  constexpr std::size_t kRosterCap = 4096;        // per shard
  constexpr std::size_t kFillLinks = 10000;       // > 2 x 4096: both rosters full
  constexpr std::size_t kBatchLinks = 256;        // links per closed-loop batch
  constexpr std::size_t kVerifyLinks = 10000;
  constexpr std::size_t kTraceSegment = 50;       // batches per traced/untraced half
  constexpr std::uint64_t kSubmitSample = 8;      // 1 Submit span in 8
  const auto inputs = GenerateFleet(options.seed, 2000, 4096);
  const auto config = FleetConfig(kRosterCap, false);

  // Set-up: calibrate and start the core.
  std::uint64_t next_link = 0;
  std::vector<double> setup_s;
  const auto setup = [&] {
    const double t0 = NowNs();
    FleetService s = StartFleet(inputs, config);
    setup_s.push_back((NowNs() - t0) * 1e-9);
    return s;
  };
  FleetService svc = setup();
  auto& core = *svc.core;
  // Warm-up, neither set-up nor measured: run enough links through that
  // both rosters are full, so every measured admission also evicts.
  for (; next_link < kFillLinks; ++next_link) {
    for (std::uint64_t f = 0; f < kWindow; ++f) {
      core.Submit(next_link, svc.profile, inputs.Frame(next_link, f));
    }
  }
  core.Drain();

  // Closed loop: a batch of new links each sends a full-window burst, then
  // the batch is drained before the next one starts.
  const auto n_batch = spans.Intern("batch");
  const auto n_submit = spans.Intern("serve.submit");
  const auto n_drain = spans.Intern("serve.drain");
  std::vector<std::uint64_t> shard_frames(core.num_shards(), 0);
  std::vector<double> batch_ms;
  const auto before = core.AggregateMetrics();
  const std::uint64_t first_link = next_link;
  const double deadline = NowNs() + options.seconds * 1e9;
  const double measure_t0 = NowNs();
  SetupPacer setups(options);
  std::uint64_t submits = 0;
  // Spans of one traced batch: the batch, its drain and the sampled submits.
  constexpr std::size_t kBatchSpans = 2 + kBatchLinks * kWindow / kSubmitSample;
  for (std::uint64_t b = 0; NowNs() < deadline || batch_ms.size() < kMinTailSamples; ++b) {
    if (options.trace && b % (2 * kTraceSegment) == 0 &&
        spans.spans().size() + kTraceSegment * kBatchSpans > kWorkloadSpanBudget) {
      break;
    }
    const bool traced = options.trace && (b / kTraceSegment) % 2 == 1;
    spans.set_enabled(traced);
    const double start = NowNs();
    const auto batch = spans.Begin(n_batch, b);
    for (std::size_t i = 0; i < kBatchLinks; ++i, ++next_link) {
      ++shard_frames[core.ShardOf(next_link)];
      for (std::uint64_t f = 0; f < kWindow; ++f) {
        const bool sampled = (++submits % kSubmitSample) == 0;
        const auto s = sampled ? spans.Begin(n_submit, next_link, batch) : kNoSpan;
        core.Submit(next_link, svc.profile, inputs.Frame(next_link, f));
        spans.End(s);
      }
    }
    const auto d = spans.Begin(n_drain, b, batch);
    core.Drain();
    spans.End(d);
    spans.End(batch, kBatchLinks);
    batch_ms.push_back((NowNs() - start) * 1e-6);
    if ((b + 1) % kTraceSegment == 0 && setups.Due(setup_s.size())) setup();
  }
  spans.set_enabled(false);
  const double measured_s = (NowNs() - measure_t0) * 1e-9;
  const std::uint64_t links = next_link - first_link;
  for (auto& f : shard_frames) f *= kWindow;
  const auto after = core.AggregateMetrics();
  const auto admits = after.Get(obs::Counter::kLinksAdmitted) -
                      before.Get(obs::Counter::kLinksAdmitted);
  const auto evicts = after.Get(obs::Counter::kLinksEvicted) -
                      before.Get(obs::Counter::kLinksEvicted);
  CheckDelivery(core, (kFillLinks + links) * kWindow, report);
  if (mulink::obs::kEnabled) {
    report.Check("every new link admitted exactly once", links,
                 admits > links ? admits - links : links - admits);
  }

  if (!options.trace) {
    SetLatency(report, batch_ms, "batch_ms", "batch");
    // From the median batch, so a slow spell of the host does not count.
    const double links_per_s =
        static_cast<double>(kBatchLinks) / (Median(batch_ms) * 1e-3);
    report.Set("throughput_per_s", links_per_s, "1/s");
    NoteMetric(report, "links_per_s", links_per_s, "1/s",
               "median batch; " + std::to_string(links) + " links in " +
                   Fixed(measured_s, 2) + " s overall");
  } else {
    const auto self = spans.SelfTimesNs();
    SetServeLayers(core, spans, self, shard_frames, measured_s, admits, evicts, report);
    std::vector<double> plain, traced;
    for (std::size_t seg = 0; (seg + 2) * kTraceSegment <= batch_ms.size(); seg += 2) {
      const auto block_median = [&](std::size_t s) {
        return Median(std::vector<double>(
            batch_ms.begin() + static_cast<std::ptrdiff_t>(s * kTraceSegment),
            batch_ms.begin() + static_cast<std::ptrdiff_t>((s + 1) * kTraceSegment)));
      };
      plain.push_back(block_median(seg));
      traced.push_back(block_median(seg + 1));
    }
    SetOverhead(report, "trace.overhead_pct", plain, traced);
  }
  svc.core->Stop();
  while (setup_s.size() <= kSetups) setup();
  if (!options.trace) {
    report.Set("setup_s", Median(setup_s), "s");
    NoteMetric(report, "setup_s", Median(setup_s), "s", "median of " + Samples(setup_s));
  }

  // Verification: fresh links through a logged, roster-capped core (so LRU
  // eviction runs) and through one engine link each; one decision per link,
  // bit-identical.
  serve::ServeCore vcore(FleetConfig(kRosterCap, true));
  const auto vprofile = vcore.RegisterProfile(svc.detector, svc.empty_scores);
  vcore.Start();
  for (std::uint64_t link = 0; link < kVerifyLinks; ++link) {
    for (std::uint64_t f = 0; f < kWindow; ++f) {
      vcore.Submit(link, vprofile, inputs.Frame(link, f));
    }
  }
  vcore.Stop();
  const auto log = vcore.MergedDecisionLog();
  core::SensingEngine engine;
  engine.UseSharedScratch();
  std::vector<std::uint64_t> ids(kVerifyLinks);
  std::vector<std::vector<core::PresenceDecision>> expected(kVerifyLinks);
  std::uint64_t vacant = 0;
  for (std::uint64_t link = 0; link < kVerifyLinks; ++link) {
    ids[link] = link;
    const auto slot = engine.AddLink(svc.detector, svc.empty_scores, config.stream);
    for (std::uint64_t f = 0; f < kWindow; ++f) {
      if (auto d = engine.ProcessPacket(slot, inputs.Frame(link, f))) {
        expected[link].push_back(*d);
        vacant += d->occupied ? 0 : 1;
      }
    }
    engine.RemoveLink(slot);
  }
  std::uint64_t one_each = 0;
  for (const auto& e : expected) one_each += e.size() == 1 ? 0 : 1;
  report.Check("one decision per churned link", kVerifyLinks, one_each);
  const auto mismatches = CountMismatches(log, ids, expected);
  report.Check("serve decisions bit-identical to the single-thread engine replay",
               kVerifyLinks, mismatches);
  const double mismatch_ratio =
      static_cast<double>(mismatches) / static_cast<double>(kVerifyLinks);
  const double vacant_share =
      static_cast<double>(vacant) / static_cast<double>(kVerifyLinks);
  if (!options.trace) {
    NoteMetric(report, "decision_mismatch_ratio", mismatch_ratio, "ratio",
               std::to_string(kVerifyLinks) + " links compared");
    report.Set("balanced_accuracy", vacant_share, "ratio");
    NoteMetric(report, "balanced_accuracy", vacant_share, "ratio", "vacant frames only");
  } else {
    report.Set("gate.decision_mismatch_ratio", mismatch_ratio, "ratio");
    LayerInputs layers;
    layers.groups.push_back({&inputs.calibration, &inputs.band, &inputs.array, {}});
    for (std::uint64_t link = 0; link < 256; ++link) {
      layers.groups[0].streams.push_back(MaterializeStream(inputs, link, 0, kWindow));
    }
    layers.stream = config.stream;
    layers.shared_profile = true;
    layers.tick_major = false;
    MeasureLayers(layers, spans, report);
  }
}

// ---- session_replay ---------------------------------------------------------------

void RunSessionReplay(const RunOptions& options, SpanRecorder& spans, Report& report) {
  constexpr std::size_t kSessionPackets = 4500;
  constexpr std::size_t kSchemeCount = std::size(kSchemes);
  // Quality floors per scheme (kSchemes order): well under what the
  // generator's sessions give, so only a real detection regression trips.
  constexpr double kAccuracyFloor[kSchemeCount] = {0.45, 0.45, 0.55, 0.4};
  const auto links = GenerateReplay(options.seed, 400, kSessionPackets);
  const std::size_t link_count = links.size();

  core::StreamingConfig stream;  // mulink detect --guard --adaptive, HMM on
  stream.window_packets = kWindow;
  stream.hop_packets = kWindow;
  stream.use_hmm = true;
  stream.guard_enabled = true;
  stream.calibration.enabled = true;

  // Set-up: calibrate every scheme on every link and register the links.
  std::vector<double> setup_s;
  struct Replay {
    std::vector<std::vector<Calibrated>> calibrated;  // [scheme][link]
    std::vector<core::SensingEngine> engines;         // one per scheme
    std::vector<std::vector<std::size_t>> slots;      // [scheme][link]
  };
  const auto setup = [&] {
    const double t0 = NowNs();
    Replay r;
    r.slots.assign(kSchemeCount, std::vector<std::size_t>(link_count));
    for (std::size_t s = 0; s < kSchemeCount; ++s) {
      r.calibrated.emplace_back();
      r.engines.emplace_back();
      for (std::size_t l = 0; l < link_count; ++l) {
        r.calibrated[s].push_back(CalibrateScheme(links[l].calibration, links[l].band,
                                                  links[l].array, kSchemes[s]));
        r.slots[s][l] = r.engines[s].AddLink(core::Detector(r.calibrated[s][l].detector),
                                             r.calibrated[s][l].empty_scores, stream);
      }
    }
    setup_s.push_back((NowNs() - t0) * 1e-9);
    return r;
  };
  Replay replay = setup();
  auto& calibrated = replay.calibrated;
  auto& engines = replay.engines;
  auto& slots = replay.slots;

  // Replay passes: each window-sized chunk of every session is ingested by
  // all four schemes; one operation is that four-scheme step. Every pass
  // after the first runs on fresh links, so decisions must repeat exactly.
  const auto n_window = spans.Intern("replay.window");
  std::vector<std::uint32_t> n_batch;
  for (const char* name : kSchemeNames) {
    n_batch.push_back(spans.Intern(std::string("replay.batch.") + name));
  }
  std::vector<std::vector<std::vector<core::PresenceDecision>>> first(
      kSchemeCount, std::vector<std::vector<core::PresenceDecision>>(link_count));
  std::vector<double> op_ms;
  std::vector<double> scheme_ns(kSchemeCount, 0.0);
  std::vector<double> pass_s;       // sum of the timed ProcessBatch calls
  std::vector<double> pass_wall_s;  // the whole pass, spans included
  std::size_t pass_spans = 0;       // a window span and one per scheme
  for (const auto& link : links) {
    pass_spans += (link.session.size() + kWindow - 1) / kWindow * (1 + kSchemeCount);
  }
  std::uint64_t packets = 0, compared = 0, diverged = 0, windows_decided = 0;
  const double deadline = NowNs() + options.seconds * 1e9;
  SetupPacer setups(options);
  for (std::size_t pass = 0; NowNs() < deadline || op_ms.size() < kMinTailSamples; ++pass) {
    if (options.trace && pass % 2 == 0 &&
        spans.spans().size() + pass_spans > kWorkloadSpanBudget) {
      break;
    }
    spans.set_enabled(options.trace && pass % 2 == 1);
    if (pass > 0) {
      for (std::size_t s = 0; s < kSchemeCount; ++s) {
        for (std::size_t l = 0; l < link_count; ++l) {
          engines[s].RemoveLink(slots[s][l]);
          slots[s][l] = engines[s].AddLink(core::Detector(calibrated[s][l].detector),
                                           calibrated[s][l].empty_scores, stream);
        }
      }
    }
    double pass_ns = 0.0;
    std::vector<std::vector<std::size_t>> seen(
        kSchemeCount, std::vector<std::size_t>(link_count, 0));
    const double wall_t0 = NowNs();
    for (std::size_t l = 0; l < link_count; ++l) {
      const auto& session = links[l].session;
      for (std::size_t start = 0; start < session.size(); start += kWindow) {
        const auto chunk = std::span<const wifi::CsiPacket>(session).subspan(
            start, std::min(kWindow, session.size() - start));
        const auto op = spans.Begin(n_window, l * 1000000 + start);
        double op_ns = 0.0;
        for (std::size_t s = 0; s < kSchemeCount; ++s) {
          const auto bs = spans.Begin(n_batch[s], l * 1000000 + start, op);
          const double t0 = NowNs();
          const auto& result = engines[s].ProcessBatch(slots[s][l], chunk);
          const double dt = NowNs() - t0;
          spans.End(bs, chunk.size());
          op_ns += dt;
          scheme_ns[s] += dt;
          for (const auto& d : result.decisions) {
            ++windows_decided;
            auto& mine = first[s][l];
            if (pass == 0) {
              mine.push_back(d);
            } else {
              const std::size_t i = seen[s][l]++;
              ++compared;
              if (i >= mine.size() || !SameDecision(mine[i], d)) ++diverged;
            }
          }
        }
        spans.End(op);
        op_ms.push_back(op_ns * 1e-6);
        pass_ns += op_ns;
        packets += chunk.size();
      }
    }
    pass_wall_s.push_back((NowNs() - wall_t0) * 1e-9);
    pass_s.push_back(pass_ns * 1e-9);
    if (setups.Due(setup_s.size())) setup();
  }
  spans.set_enabled(false);
  report.Check("replay passes on fresh links repeat the first pass bit for bit",
               compared, diverged);

  // Balanced accuracy of the first pass against the generator's truth.
  std::vector<double> accuracy(kSchemeCount);
  std::uint64_t below_floor = 0;
  for (std::size_t s = 0; s < kSchemeCount; ++s) {
    double tp = 0, fn = 0, tn = 0, fp = 0;
    for (std::size_t l = 0; l < link_count; ++l) {
      for (const auto& d : first[s][l]) {
        const int truth = links[l].Truth(d.timestamp_s, static_cast<double>(kWindow) / 50.0);
        if (truth == 1) (d.occupied ? tp : fn) += 1;
        if (truth == 0) (d.occupied ? fp : tn) += 1;
      }
    }
    const double tpr = tp + fn > 0 ? tp / (tp + fn) : 0.0;
    const double tnr = tn + fp > 0 ? tn / (tn + fp) : 0.0;
    accuracy[s] = 0.5 * (tpr + tnr);
    below_floor += accuracy[s] < kAccuracyFloor[s] ? 1 : 0;
    if (!options.trace) {
      NoteMetric(report, std::string("balanced_accuracy.") + kSchemeNames[s], accuracy[s],
                 "ratio", "floor " + Fixed(kAccuracyFloor[s], 2) + ", " +
                     std::to_string(static_cast<int>(tp + fn + tn + fp)) + " windows");
    }
  }
  report.Check("schemes at or above their balanced-accuracy floor", kSchemeCount, below_floor);

  while (setup_s.size() <= kSetups) setup();
  if (!options.trace) {
    report.Set("setup_s", Median(setup_s), "s");
    SetLatency(report, op_ms, "window_ms", "four-scheme window");
    double total_ns = 0.0;
    for (std::size_t s = 0; s < kSchemeCount; ++s) {
      total_ns += scheme_ns[s];
      NoteMetric(report, std::string("pkts_per_s.") + kSchemeNames[s],
                 static_cast<double>(packets) / (scheme_ns[s] * 1e-9), "1/s");
    }
    // Packets of one pass over the median pass time, so a slow spell of the
    // host does not count.
    report.Set("throughput_per_s",
               static_cast<double>(packets / pass_s.size()) / Median(pass_s), "1/s");
    NoteMetric(report, "pkts_per_s.all_schemes", static_cast<double>(packets) / (total_ns * 1e-9),
               "1/s", "all passes");
    report.Set("balanced_accuracy",
               std::accumulate(accuracy.begin(), accuracy.end(), 0.0) /
                   static_cast<double>(kSchemeCount),
               "ratio");
    NoteMetric(report, "setup_s", Median(setup_s), "s", "median of " + Samples(setup_s));
    report.Note("replayed " + std::to_string(pass_s.size()) + " passes, " +
                std::to_string(packets) + " packets per scheme, " +
                std::to_string(windows_decided) + " decisions");
  } else {
    // Wall time of whole passes, spans included, so the traced pass pays
    // for its spans. The first pair is left out: its untraced pass also
    // records the reference decisions.
    std::vector<double> plain, traced;
    for (std::size_t p = 2; p + 1 < pass_wall_s.size(); p += 2) {
      plain.push_back(pass_wall_s[p]);
      traced.push_back(pass_wall_s[p + 1]);
    }
    SetOverhead(report, "trace.overhead_pct", plain, traced);
    LayerInputs layers;
    for (const auto& link : links) {
      layers.groups.push_back({&link.calibration, &link.band, &link.array, {link.session}});
    }
    layers.stream = stream;
    layers.shared_profile = false;
    layers.tick_major = false;
    MeasureLayers(layers, spans, report);
  }
}

}  // namespace perfbench
