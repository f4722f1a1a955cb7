// Single-thread layer probes. Each probe drives one layer through its public
// calls on the workload's own frames, with a span around every call; the
// per-layer metrics are medians of those spans' self times.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "common/constants.h"
#include "core/hmm.h"
#include "core/sanitize.h"
#include "kernels/kernels.h"
#include "nic/frame_guard.h"
#include "obs/metrics.h"
#include "workloads.h"

namespace perfbench {

namespace kernels = mulink::kernels;
namespace nic = mulink::nic;
namespace obs = mulink::obs;
using mulink::Complex;

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in BENCHMARK.json order.
constexpr LayerMetric kPerLayer[] = {
    {"serve.submit_us.p50", "us"},
    {"serve.submit_us.p99", "us"},
    {"serve.drain_ms.p50", "ms"},
    {"serve.drain_ms.p99", "ms"},
    {"serve.queue_depth.p50.shardstats", "count"},
    {"serve.queue_depth.p99.shardstats", "count"},
    {"serve.shard_skew", "ratio"},
    {"serve.admits_per_s", "1/s"},
    {"serve.evicts_per_s", "1/s"},
    {"serve.frames_dropped", "count"},
    {"serve.frames_rejected", "count"},
    {"generator.late_ms.max", "ms"},
    {"engine.ingest_us", "us"},
    {"engine.decide_us", "us"},
    {"engine.batch_us_per_pkt.baseline", "us"},
    {"engine.batch_us_per_pkt.subcarrier", "us"},
    {"engine.batch_us_per_pkt.combined", "us"},
    {"engine.batch_us_per_pkt.variance", "us"},
    {"engine.add_link_us", "us"},
    {"engine.remove_link_us", "us"},
    {"engine.profile_stack_hit_ratio", "ratio"},
    {"nic.guard_inspect_us", "us"},
    {"nic.quarantine_ratio", "ratio"},
    {"nic.repair_ratio", "ratio"},
    {"core.sanitize_us", "us"},
    {"core.score_us.baseline", "us"},
    {"core.score_us.subcarrier", "us"},
    {"core.score_us.combined", "us"},
    {"core.score_us.variance", "us"},
    {"core.hmm_update_ns", "ns"},
    {"core.calibrate_ms.baseline", "ms"},
    {"core.calibrate_ms.subcarrier", "ms"},
    {"core.calibrate_ms.combined", "ms"},
    {"core.calibrate_ms.variance", "ms"},
    {"core.ladder_transitions", "count"},
    {"core.profile_swaps", "count"},
    {"kernels.sincos_ns", "ns"},
    {"kernels.sincos_bytes", "bytes"},
    {"kernels.sincos_flops", "flops"},
    {"kernels.atan2_ns", "ns"},
    {"kernels.atan2_bytes", "bytes"},
    {"kernels.atan2_flops", "flops"},
    {"kernels.weighted_covariance_ns", "ns"},
    {"kernels.weighted_covariance_bytes", "bytes"},
    {"kernels.weighted_covariance_flops", "flops"},
    {"kernels.bartlett_scan_ns", "ns"},
    {"kernels.bartlett_scan_bytes", "bytes"},
    {"kernels.bartlett_scan_flops", "flops"},
    {"obs.overhead_pct", "%"},
    {"obs.overhead_pct.q1", "%"},
    {"obs.overhead_pct.q3", "%"},
    {"trace.overhead_pct", "%"},
    {"trace.overhead_pct.q1", "%"},
    {"trace.overhead_pct.q3", "%"},
    {"gate.decision_mismatch_ratio", "ratio"},
    {"gate.tick_miss_ratio", "ratio"},
};

constexpr std::size_t kCombined = 2;  // index of the combined scheme in kSchemes

double MedianOf(const SpanRecorder& spans, const std::vector<double>& self,
                const std::string& name, double scale) {
  return Median(spans.PerItemSelfNs(name, self)) * scale;
}

// Kernel microbenchmarks at production shapes, on real CSI from the
// workload's calibration capture: per-packet trig at 30 subcarriers, the
// window covariance at 3 antennas x (25 packets x 30 subcarriers) and the
// Bartlett scan over the detector's 181-point angle grid.
void ProbeKernels(const std::vector<wifi::CsiPacket>& capture,
                  SpanRecorder& spans, Report& report) {
  constexpr int kRepeats = 21;
  const std::size_t antennas = capture.front().NumAntennas();
  const std::size_t subcarriers = capture.front().NumSubcarriers();
  const std::size_t n = kWindow * subcarriers;
  constexpr std::size_t kPoints = 181;

  std::vector<double> y(subcarriers), x(subcarriers), angle(subcarriers);
  std::vector<double> sin_out(subcarriers), cos_out(subcarriers);
  for (std::size_t k = 0; k < subcarriers; ++k) {
    Complex sum{};
    for (std::size_t m = 0; m < antennas; ++m) sum += capture.front().csi.At(m, k);
    y[k] = sum.imag();
    x[k] = sum.real();
  }
  std::vector<double> re(antennas * n), im(antennas * n), w(n);
  for (std::size_t p = 0; p < kWindow; ++p) {
    const auto& pkt = capture[p % capture.size()];
    for (std::size_t m = 0; m < antennas; ++m) {
      kernels::Deinterleave(pkt.csi.raw() + m * subcarriers, subcarriers,
                            re.data() + m * n + p * subcarriers,
                            im.data() + m * n + p * subcarriers);
    }
    for (std::size_t k = 0; k < subcarriers; ++k) {
      w[p * subcarriers + k] = 0.5 + 0.5 / static_cast<double>(k + 1);
    }
  }
  std::vector<Complex> cov(antennas * antennas);
  std::vector<double> packed(kernels::PackedHermitianSize(antennas));
  std::vector<double> steer_re(antennas * kPoints), steer_im(antennas * kPoints);
  for (std::size_t i = 0; i < kPoints; ++i) {
    const double theta = (-90.0 + static_cast<double>(i)) * mulink::kPi / 180.0;
    for (std::size_t m = 0; m < antennas; ++m) {
      const double phase = -mulink::kPi * static_cast<double>(m) * std::sin(theta);
      steer_re[m * kPoints + i] = std::cos(phase);
      steer_im[m * kPoints + i] = std::sin(phase);
    }
  }
  std::vector<double> spectrum(kPoints);

  const auto time = [&](const char* name, std::size_t calls, auto&& body) {
    const auto id = spans.Intern(std::string("kernels.") + name);
    for (int r = 0; r < kRepeats; ++r) {
      const auto span = spans.Begin(id, static_cast<std::uint64_t>(r));
      for (std::size_t c = 0; c < calls; ++c) body(c);
      spans.End(span, calls);
    }
  };
  time("atan2", 4000, [&](std::size_t) {
    kernels::Atan2(y.data(), x.data(), subcarriers, angle.data());
  });
  time("sincos", 4000, [&](std::size_t c) {
    angle[c % subcarriers] += 1e-9;
    kernels::SinCos(angle.data(), subcarriers, sin_out.data(), cos_out.data());
  });
  time("weighted_covariance", 400, [&](std::size_t) {
    kernels::WeightedCovariance(re.data(), im.data(), antennas, n, w.data(), cov.data());
  });
  kernels::PackHermitian(cov.data(), antennas, packed.data());
  const double* covs[] = {packed.data()};
  double* outs[] = {spectrum.data()};
  time("bartlett_scan", 1000, [&](std::size_t) {
    kernels::BartlettScan(steer_re.data(), steer_im.data(), kPoints, antennas, covs, 1,
                          1.0 / static_cast<double>(antennas), outs);
  });

  const auto self = spans.SelfTimesNs();
  const double a = static_cast<double>(antennas);
  const double sc = static_cast<double>(subcarriers);
  const double pairs = a * (a + 1.0) / 2.0;
  const double offdiag = a * (a - 1.0) / 2.0;
  // Nominal bytes (inputs read + outputs written) and flops per call. Trig
  // flops per element are counted from trig_core.h, as bench/micro_core.cpp
  // counts them: ~30 a sincos pair, ~40 an atan2 (two half-angle reductions
  // plus the series).
  report.Set("kernels.atan2_ns", MedianOf(spans, self, "kernels.atan2", 1.0), "ns");
  report.Set("kernels.atan2_bytes", 3.0 * 8.0 * sc, "bytes");
  report.Set("kernels.atan2_flops", 40.0 * sc, "flops");
  report.Set("kernels.sincos_ns", MedianOf(spans, self, "kernels.sincos", 1.0), "ns");
  report.Set("kernels.sincos_bytes", 3.0 * 8.0 * sc, "bytes");
  report.Set("kernels.sincos_flops", 30.0 * sc, "flops");
  report.Set("kernels.weighted_covariance_ns",
             MedianOf(spans, self, "kernels.weighted_covariance", 1.0), "ns");
  report.Set("kernels.weighted_covariance_bytes",
             8.0 * (2.0 * a + 1.0) * static_cast<double>(n) + 16.0 * a * a, "bytes");
  report.Set("kernels.weighted_covariance_flops",
             10.0 * pairs * static_cast<double>(n), "flops");
  report.Set("kernels.bartlett_scan_ns", MedianOf(spans, self, "kernels.bartlett_scan", 1.0),
             "ns");
  report.Set("kernels.bartlett_scan_bytes",
             8.0 * (2.0 * a * kPoints + a * a + kPoints), "bytes");
  report.Set("kernels.bartlett_scan_flops",
             static_cast<double>(kPoints) * (3.0 * a + 8.0 * offdiag + 2.0), "flops");
}

}  // namespace

void DeclarePerLayerMetrics(Report& report) {
  for (const auto& m : kPerLayer) report.Set(m.name, 0.0, m.unit);
}

void MeasureLayers(const LayerInputs& inputs, SpanRecorder& spans, Report& report) {
  constexpr std::size_t kSchemeCount = std::size(kSchemes);
  spans.set_enabled(true);

  // core.calibrate: Detector::Calibrate + CalibrateThreshold per scheme.
  std::vector<std::vector<Calibrated>> cal(kSchemeCount);  // [scheme][group]
  for (std::size_t s = 0; s < kSchemeCount; ++s) {
    const auto name = spans.Intern(std::string("core.calibrate.") + kSchemeNames[s]);
    for (std::size_t g = 0; g < inputs.groups.size(); ++g) {
      const auto& group = inputs.groups[g];
      const auto span = spans.Begin(name, g);
      cal[s].push_back(CalibrateScheme(*group.calibration, *group.band, *group.array,
                                       kSchemes[s]));
      spans.End(span);
    }
  }

  // Stage replay: the pipeline a link runs, composed from its stage entry
  // points — FrameGuard::Inspect, SanitizePhaseInto, Detector::Score on each
  // full window of accepted frames, then the HMM filter update.
  const auto n_frame = spans.Intern("replay.frame");
  const auto n_guard = spans.Intern("nic.guard_inspect");
  const auto n_sanitize = spans.Intern("core.sanitize");
  const auto n_hmm = spans.Intern("core.hmm_update");
  std::uint64_t received = 0, quarantined = 0, repaired = 0;
  for (std::size_t s = 0; s < kSchemeCount; ++s) {
    const auto n_score = spans.Intern(std::string("core.score.") + kSchemeNames[s]);
    std::uint64_t id = 0;
    for (std::size_t g = 0; g < inputs.groups.size(); ++g) {
      const auto& group = inputs.groups[g];
      const auto& detector = cal[s][g].detector;
      const auto hmm =
          core::PresenceHmm::FitFromEmptyScores(cal[s][g].empty_scores, inputs.stream.hmm);
      // One scoring scratch per group: fleet links of a group share one,
      // as a serve shard's links do.
      core::DetectorScratch scratch;
      for (const auto& stream : group.streams) {
        nic::FrameGuard guard(inputs.stream.guard);
        core::SanitizeScratch sanitize_scratch;
        wifi::CsiPacket sanitized;
        core::PresenceHmm::Filter filter(hmm);
        std::vector<wifi::CsiPacket> window(kWindow);
        std::size_t fill = 0;
        for (const auto& frame : stream) {
          const auto f = spans.Begin(n_frame, id);
          const auto gs = spans.Begin(n_guard, id, f);
          const auto verdict = guard.Inspect(frame).verdict;
          spans.End(gs);
          if (verdict != nic::FrameVerdict::kAccept) {
            spans.End(f);
            continue;
          }
          const auto ss = spans.Begin(n_sanitize, id, f);
          core::SanitizePhaseInto(frame, *group.band, sanitized, sanitize_scratch);
          spans.End(ss);
          window[fill++] = frame;
          if (fill == kWindow) {
            fill = 0;
            const auto sc = spans.Begin(n_score, id, f);
            const double score =
                detector.Score(std::span<const wifi::CsiPacket>(window), scratch);
            spans.End(sc);
            const auto hs = spans.Begin(n_hmm, id, f);
            filter.Update(score);
            spans.End(hs);
          }
          spans.End(f);
        }
        if (s == 0) {
          received += guard.health().received;
          quarantined += guard.health().quarantined;
          repaired += guard.health().repaired;
        }
        ++id;
      }
    }
  }
  report.Set("nic.quarantine_ratio",
             received ? static_cast<double>(quarantined) / static_cast<double>(received) : 0.0,
             "ratio");
  report.Set("nic.repair_ratio",
             received ? static_cast<double>(repaired) / static_cast<double>(received) : 0.0,
             "ratio");

  // Engine replay of the workload's configuration (combined scheme):
  // AddLink, ProcessPacket per frame, RemoveLink.
  const auto n_add = spans.Intern("engine.add_link");
  const auto n_remove = spans.Intern("engine.remove_link");
  const auto n_ingest = spans.Intern("engine.ingest");
  const auto n_decide = spans.Intern("engine.decide");
  struct EngineLink {
    std::size_t group;
    const std::vector<wifi::CsiPacket>* frames;
    std::size_t slot = 0;
  };
  std::vector<EngineLink> all;
  for (std::size_t g = 0; g < inputs.groups.size(); ++g) {
    for (const auto& stream : inputs.groups[g].streams) all.push_back({g, &stream});
  }
  // Fleet links of one group share one detector instance, as in a serve
  // profile; otherwise every link gets its own copy.
  std::vector<std::vector<std::shared_ptr<const core::Detector>>> shared(kSchemeCount);
  for (std::size_t s = 0; s < kSchemeCount; ++s) {
    for (const auto& c : cal[s]) {
      shared[s].push_back(std::make_shared<const core::Detector>(c.detector));
    }
  }
  const auto add = [&](core::SensingEngine& engine, std::size_t scheme,
                       std::size_t group) {
    const auto& c = cal[scheme][group];
    if (inputs.shared_profile) {
      return engine.AddLink(shared[scheme][group], c.empty_scores, inputs.stream);
    }
    return engine.AddLink(core::Detector(c.detector), c.empty_scores, inputs.stream);
  };
  std::uint64_t hits = 0, rebuilds = 0, transitions = 0, swaps = 0;
  {
    core::SensingEngine engine;
    if (inputs.shared_profile) engine.UseSharedScratch();
    const auto ingest = [&](EngineLink& link, std::size_t i, std::uint64_t id) {
      const auto span = spans.Begin(n_ingest, id);
      const bool decided = engine.ProcessPacket(link.slot, (*link.frames)[i]).has_value();
      spans.EndAs(span, decided ? n_decide : n_ingest);
    };
    const auto remove = [&](EngineLink& link, std::uint64_t id) {
      const auto& m = engine.Metrics(link.slot);
      hits += m.Get(obs::Counter::kProfileStackHits);
      rebuilds += m.Get(obs::Counter::kProfileStackRebuilds);
      transitions += m.Get(obs::Counter::kLadderTransitions);
      swaps += m.Get(obs::Counter::kProfileSwaps);
      const auto span = spans.Begin(n_remove, id);
      engine.RemoveLink(link.slot);
      spans.End(span);
    };
    const auto admit = [&](EngineLink& link, std::uint64_t id) {
      const auto span = spans.Begin(n_add, id);
      link.slot = add(engine, kCombined, link.group);
      spans.End(span);
    };
    if (inputs.tick_major) {
      std::size_t longest = 0;
      for (std::size_t l = 0; l < all.size(); ++l) {
        admit(all[l], l);
        longest = std::max(longest, all[l].frames->size());
      }
      for (std::size_t i = 0; i < longest; ++i) {
        for (std::size_t l = 0; l < all.size(); ++l) {
          if (i < all[l].frames->size()) ingest(all[l], i, l);
        }
      }
      for (std::size_t l = 0; l < all.size(); ++l) remove(all[l], l);
    } else {
      for (std::size_t l = 0; l < all.size(); ++l) {
        admit(all[l], l);
        for (std::size_t i = 0; i < all[l].frames->size(); ++i) ingest(all[l], i, l);
        remove(all[l], l);
      }
    }
  }
  report.Set("engine.profile_stack_hit_ratio",
             hits + rebuilds ? static_cast<double>(hits) / static_cast<double>(hits + rebuilds)
                             : 0.0,
             "ratio");
  report.Set("core.ladder_transitions", static_cast<double>(transitions), "count");
  report.Set("core.profile_swaps", static_cast<double>(swaps), "count");

  // Engine batches per scheme: ProcessBatch over window-sized chunks.
  for (std::size_t s = 0; s < kSchemeCount; ++s) {
    const auto name = spans.Intern(std::string("engine.batch.") + kSchemeNames[s]);
    core::SensingEngine engine;
    if (inputs.shared_profile) engine.UseSharedScratch();
    for (std::size_t l = 0; l < all.size(); ++l) {
      const auto slot = add(engine, s, all[l].group);
      const std::span<const wifi::CsiPacket> frames(*all[l].frames);
      for (std::size_t start = 0; start < frames.size(); start += kWindow) {
        const auto chunk = frames.subspan(start, std::min(kWindow, frames.size() - start));
        const auto span = spans.Begin(name, l);
        engine.ProcessBatch(slot, chunk);
        spans.End(span, chunk.size());
      }
      engine.RemoveLink(slot);
    }
  }

  // obs overhead: the same replay with the engine's metrics off and on, in
  // alternating order, one pass span each.
  {
    constexpr int kPairs = 20;
    const auto n_off = spans.Intern("obs.pass.off");
    const auto n_on = spans.Intern("obs.pass.on");
    core::SensingEngine engine;
    if (inputs.shared_profile) engine.UseSharedScratch();
    for (auto& link : all) link.slot = add(engine, kCombined, link.group);
    std::vector<double> off_s, on_s;
    const auto pass = [&](bool metrics, int pair) {
      engine.SetMetricsEnabled(metrics);
      for (const auto& link : all) engine.Reset(link.slot);
      const double t0 = NowNs();
      for (const auto& link : all) {
        engine.ProcessBatch(link.slot, std::span<const wifi::CsiPacket>(*link.frames));
      }
      const double t1 = NowNs();
      if (pair < 0) return;  // warm-up pass
      spans.Add(metrics ? n_on : n_off, static_cast<std::uint64_t>(pair), kNoSpan, t0, t1);
      (metrics ? on_s : off_s).push_back(t1 - t0);
    };
    pass(true, -1);  // warm every buffer before the first timed pair
    for (int p = 0; p < kPairs; ++p) {
      pass(p % 2 == 1, p);
      pass(p % 2 == 0, p);
    }
    SetOverhead(report, "obs.overhead_pct", off_s, on_s);
  }

  ProbeKernels(*inputs.groups.front().calibration, spans, report);

  const auto self = spans.SelfTimesNs();
  report.Set("nic.guard_inspect_us", MedianOf(spans, self, "nic.guard_inspect", 1e-3), "us");
  report.Set("core.sanitize_us", MedianOf(spans, self, "core.sanitize", 1e-3), "us");
  report.Set("core.hmm_update_ns", MedianOf(spans, self, "core.hmm_update", 1.0), "ns");
  report.Set("engine.ingest_us", MedianOf(spans, self, "engine.ingest", 1e-3), "us");
  report.Set("engine.decide_us", MedianOf(spans, self, "engine.decide", 1e-3), "us");
  report.Set("engine.add_link_us", MedianOf(spans, self, "engine.add_link", 1e-3), "us");
  report.Set("engine.remove_link_us", MedianOf(spans, self, "engine.remove_link", 1e-3), "us");
  for (std::size_t s = 0; s < kSchemeCount; ++s) {
    const std::string suffix = kSchemeNames[s];
    report.Set("core.score_us." + suffix, MedianOf(spans, self, "core.score." + suffix, 1e-3),
               "us");
    report.Set("core.calibrate_ms." + suffix,
               MedianOf(spans, self, "core.calibrate." + suffix, 1e-6), "ms");
    report.Set("engine.batch_us_per_pkt." + suffix,
               MedianOf(spans, self, "engine.batch." + suffix, 1e-3), "us");
  }
  spans.set_enabled(false);
}

}  // namespace perfbench
