#include "core/engine.h"

#include <bit>
#include <optional>
#include <utility>

#include "common/assert.h"
#include "kernels/kernels.h"

namespace mulink::core {

struct SensingEngine::LinkState {
  // What a link's buffers are sized by. An evicted link's state stays
  // parked in its slot, and AddLink re-binds it to the next link of the
  // same shape instead of rebuilding every ring.
  struct Shape {
    DetectionScheme scheme = DetectionScheme::kBaseline;
    // Sanitize on ingest only when the scheme consumes sanitized windows
    // (the amplitude-only baseline must see raw packets).
    bool sanitized = false;
    std::size_t antennas = 0;
    std::size_t subcarriers = 0;
    std::size_t window = 0;

    bool operator==(const Shape&) const = default;
  };

  static Shape ShapeOf(const Detector& detector,
                       const StreamingConfig& config) {
    return Shape{detector.config().scheme, detector.UsesSanitizedInput(),
                 detector.num_antennas(), detector.num_subcarriers(),
                 config.window_packets};
  }

  // Buffer-shaping step: sizes every ring and window view for `shape_in`.
  // The state holds no link until Bind. Nothing here is per-link state:
  // every ring slot is rewritten by ingest before a decision reads it (a
  // decision needs a full ring since the last Bind, Reset or resync), so a
  // parked state's stale contents never reach a score.
  LinkState(const Shape& shape_in, DetectorScratch* engine_scratch)
      : shape(shape_in),
        pre_sanitize(shape.sanitized),
        scratch(engine_scratch != nullptr
                    ? engine_scratch
                    // mulink-lint: allow(alloc): ctor, setup path
                    : (own_scratch = std::make_unique<DetectorScratch>())
                          .get()) {
    const std::size_t window_packets = shape.window;
    const std::size_t num_sub = shape.subcarriers;
    // mulink-lint: allow(alloc): ctor, setup path
    ring.resize(window_packets);
    // Slots take the link's CSI shape up front, so ingest writes into warm
    // buffers from the first packet on.
    for (auto& slot : ring) slot.csi.Resize(shape.antennas, num_sub);
    // mulink-lint: allow(alloc): ctor, setup path
    window.reserve(window_packets);
    if (pre_sanitize) {
      // One flat block of per-packet mu rows, like power_ring and
      // soa_slabs: row `slot` starts at mu_ring[slot * num_sub].
      // mulink-lint: allow(alloc): ctor, setup path
      mu_ring.resize(window_packets * num_sub, 0.0);
      // mulink-lint: allow(alloc): ctor, setup path
      mu_median_ring.resize(window_packets, 0.0);
      // mulink-lint: allow(alloc): ctor, setup path
      mu_window.resize(window_packets, nullptr);
      // mulink-lint: allow(alloc): ctor, setup path
      median_window.resize(window_packets, 0.0);
      // mulink-lint: allow(alloc): ctor, setup path
      pending_rows.resize(window_packets, nullptr);
      // mulink-lint: allow(alloc): ctor, setup path
      pending_medians.resize(window_packets, 0.0);
      mu_median_scratch.Shape(num_sub);
      if (shape.scheme == DetectionScheme::kSubcarrierWeighting ||
          shape.scheme == DetectionScheme::kVarianceMobile) {
        // Power-row cache: each ring slot keeps its packet's per-cell
        // power (Detector::PowerRowInto), so the window statistic folds
        // from contiguous rows instead of re-deriving window_packets x
        // cells powers from the packets every hop.
        power_stride = shape.antennas * num_sub;
        // mulink-lint: allow(alloc): ctor, setup path
        power_ring.resize(window_packets * power_stride, 0.0);
        // mulink-lint: allow(alloc): ctor, setup path
        power_window.resize(window_packets, nullptr);
      }
      if (shape.scheme == DetectionScheme::kSubcarrierAndPathWeighting) {
        // Split-complex slab cache (see SampleCovarianceSlabsInto): each
        // ring slot keeps its packet pre-deinterleaved so full-mask
        // combined windows skip both the window copy and the per-window
        // re-split of every packet. One contiguous block for the whole
        // ring: at fleet scale the window read is the dominant cold-memory
        // cost of a decision, and a single sequential run (with one wrap)
        // streams far better than window_packets scattered heap blocks.
        soa_stride = 2 * shape.antennas * num_sub;
        // mulink-lint: allow(alloc): ctor, setup path
        soa_slabs.resize(window_packets * soa_stride, 0.0);
        // mulink-lint: allow(alloc): ctor, setup path
        soa_window.resize(window_packets, nullptr);
      }
    } else {
      // Amplitude-only baseline: the per-packet distance is a deterministic
      // map of the raw packet, so it rides the ring like the mu factors do
      // for sanitized schemes. Epoch stamps invalidate cached values when a
      // recalibration swaps the amplitude profile under the ring.
      // mulink-lint: allow(alloc): ctor, setup path
      baseline_ring.resize(window_packets, 0.0);
      // mulink-lint: allow(alloc): ctor, setup path
      baseline_epoch_ring.resize(window_packets, ~std::uint64_t{0});
      // mulink-lint: allow(alloc): ctor, setup path
      baseline_window.resize(window_packets, 0.0);
    }
  }

  // Attach a link: exactly one of `owned` / `shared` is set, and its shape
  // with `cfg` is this state's. Every piece of per-link state is set here,
  // so a fresh state and a parked one decide bit-identically. Allocation-
  // free unless the link runs the HMM (its fit), the guard (its per-chain
  // streaks, on the first frame) or adaptive calibration on a state that
  // has not run it before (its posteriors).
  void Bind(std::optional<Detector> owned,
            std::shared_ptr<const Detector> shared,
            const std::vector<double>& empty_scores,
            const StreamingConfig& cfg) {
    MULINK_REQUIRE(cfg.window_packets >= 2,
                   "SensingEngine: window must hold >= 2 packets");
    MULINK_REQUIRE(cfg.hop_packets >= 1 &&
                       cfg.hop_packets <= cfg.window_packets,
                   "SensingEngine: hop must be in [1, window]");
    MULINK_REQUIRE(owned.has_value() || !cfg.calibration.enabled,
                   "SensingEngine: adaptive calibration mutates the detector "
                   "in place; shared-detector links must disable it");
    owned_detector = std::move(owned);
    shared_detector = std::move(shared);
    view = owned_detector.has_value() ? &*owned_detector
                                      : shared_detector.get();
    config = cfg;
    guard.reset();
    // mulink-lint: allow(alloc): Bind, setup path
    if (config.guard_enabled) guard.emplace(config.guard);
    filter.reset();
    hmm.reset();
    if (config.use_hmm) {
      hmm = PresenceHmm::FitFromEmptyScores(empty_scores, config.hmm);
      filter.emplace(*hmm);  // mulink-lint: allow(alloc): Bind, setup path
    }
    calibrator.Configure(*view, std::span<const double>(empty_scores),
                         config.calibration);
    ClearStream();
    metrics_on = true;
    bound = true;
  }

  // Detach the link, keeping every buffer for the next Bind of this shape.
  // The detector references go, so a parked slot pins no profile.
  void Park() {
    bound = false;
    view = nullptr;
    owned_detector.reset();
    shared_detector.reset();
  }

  const Detector& det() const { return *view; }

  // Inspect one arriving frame. nullopt means the frame is quarantined and
  // must not reach the ring; otherwise the report's `resync` flag tells the
  // caller to flush its ring before ingesting the frame. The guard's
  // accept/repair/quarantine tallies and ring resyncs are mirrored into
  // `sink`, with the per-frame inspection latency sampled
  // 1-in-kIngestSampleEvery (deterministic tick, so totals merge
  // bit-identically across shards); the verdict counters stay exact.
  std::optional<nic::FrameReport> Admit(const wifi::CsiPacket& packet,
                                        obs::Registry* sink) {
    MULINK_OBS_COUNT(sink, kPacketsIngested);
    if (!guard.has_value()) {
      MULINK_OBS_COUNT(sink, kPacketsAccepted);
      return nic::FrameReport{};
    }
    obs::Registry* const timed = MULINK_OBS_SAMPLED(sink);
    nic::FrameReport report;
    {
      MULINK_OBS_STAGE_TIMER(timer, timed, kGuardClassify);
      report = guard->Inspect(packet);
    }
    if (report.resync) MULINK_OBS_COUNT(sink, kRingResyncs);
    switch (report.verdict) {
      case nic::FrameVerdict::kQuarantine:
        MULINK_OBS_COUNT(sink, kPacketsQuarantined);
        return std::nullopt;
      case nic::FrameVerdict::kRepair:
        // A repaired frame in the hop disqualifies its window as quiet
        // evidence, and a burst of RSSI-outlier repairs is the AGC fast
        // re-baseline trigger.
        ++repaired_since_decision;
        if (report.Has(nic::FrameFault::kRssiOutlier)) {
          ++agc_frames_since_decision;
        }
        MULINK_OBS_COUNT(sink, kPacketsRepaired);
        MULINK_OBS_COUNT(sink, kPacketsAccepted);
        break;
      default:
        MULINK_OBS_COUNT(sink, kPacketsAccepted);
        break;
    }
    return report;
  }

  // All-antennas mask for a detector with `num_antennas` chains.
  static std::uint32_t FullMask(std::size_t num_antennas) {
    return num_antennas >= 32
               ? 0xffffffffu
               : ((1u << static_cast<std::uint32_t>(num_antennas)) - 1u);
  }

  // Feed one packet: guard it, write it into the ring and, when a window
  // aligned to the hop completes, score it and update the belief. Every
  // per-packet map is computed ONCE on ingest (phase sanitize, multipath
  // factors, power rows or slabs for sanitized schemes, the amplitude
  // distance for the baseline), so overlapping windows reuse window-hop
  // rows instead of re-deriving all window_packets of them; a decision is
  // bit-identical to Detector::Score on the window's last window_packets
  // raw packets.
  std::optional<PresenceDecision> Push(const wifi::CsiPacket& packet) {
    const Detector& detector = det();
    obs::Registry* const sink = metrics_on ? &metrics : nullptr;
    scratch->metrics = sink;
    calibrator.metrics = sink;
    const auto report = Admit(packet, sink);
    if (!report.has_value()) return std::nullopt;  // quarantined
    if (report->resync) {
      // Gap too wide to straddle: flush the ring, keep the temporal state.
      write_pos = 0;
      count = 0;
      packets_since_decision = 0;
      mu_median_pending = 0;
    }
    wifi::CsiPacket& slot = ring[write_pos];
    if (pre_sanitize) {
      // Writes into the slot, reusing its CSI buffer once warm. Per-packet
      // sanitize latency is sampled on the shard's deterministic tick, like
      // the guard-classify stage.
      obs::Registry* const timed = MULINK_OBS_SAMPLED(sink);
      MULINK_OBS_STAGE_TIMER(timer, timed, kIngestSanitize);
      SanitizePhaseInto(packet, detector.band(), slot, scratch->sanitize);
      // Multipath factors and their median are per-packet maps of the
      // sanitized slot, so they ride the ring too: each hop's decision
      // reuses window-hop rows instead of re-deriving all window_packets
      // of them (scoring from cached rows is bit-identical to the
      // recompute-per-window path on the same packets). The medians are
      // taken in batches at decision time (FlushMuMedians).
      MeasureMultipathFactorsInto(slot, detector.band(), MuRow(write_pos),
                                  scratch->multipath);
      if (mu_median_pending < config.window_packets) ++mu_median_pending;
      if (!power_ring.empty()) {
        Detector::PowerRowInto(slot,
                               power_ring.data() + write_pos * power_stride);
      }
      if (!soa_slabs.empty()) {
        // Split the sanitized slot into the slot's slab (antenna-major re
        // rows then im rows — exactly kernels::Deinterleave's bytes), so
        // the covariance planes assemble by memcpy at decision time.
        double* const slab = soa_slabs.data() + write_pos * soa_stride;
        const std::size_t num_sub = detector.num_subcarriers();
        const std::size_t num_ant = detector.num_antennas();
        for (std::size_t m = 0; m < num_ant; ++m) {
          kernels::Deinterleave(slot.csi.raw() + m * num_sub, num_sub,
                                slab + m * num_sub,
                                slab + (num_ant + m) * num_sub);
        }
      }
    } else {
      slot = packet;  // copy-assign reuses the slot's CSI buffer
      baseline_ring[write_pos] = detector.BaselinePacketScore(slot);
      baseline_epoch_ring[write_pos] = detector.profile_epoch();
    }
    write_pos = (write_pos + 1) % config.window_packets;
    if (count < config.window_packets) ++count;
    ++packets_since_decision;

    if (count < config.window_packets ||
        packets_since_decision < config.hop_packets) {
      return std::nullopt;
    }
    packets_since_decision = 0;

    PresenceDecision decision;
    // The decision fires on the packet just pushed, so it is the newest
    // packet of every window shape below.
    decision.timestamp_s = packet.timestamp_s;

    const std::uint32_t full_mask = FullMask(detector.num_antennas());
    const std::uint32_t live_mask =
        guard.has_value() ? full_mask & ~guard->dead_antenna_mask()
                          : full_mask;
    MULINK_OBS_GAUGE(sink, kLiveAntennas,
                     static_cast<double>(std::popcount(live_mask)));
    if (live_mask == 0) {
      // Every chain dead: pause decisions until one revives.
      MULINK_OBS_COUNT(sink, kDecisionsSuppressed);
      return std::nullopt;
    }

    // Baseline fast path: full-mask windows fold the ingest-cached packet
    // distances directly (bit-identical to ScoreBaseline), and the window
    // vector is only assembled when the calibrator needs to learn from it.
    const bool baseline_fast =
        !pre_sanitize && live_mask == full_mask &&
        BaselineCacheFresh(detector.profile_epoch());
    // Combined-scheme fast path: full-mask windows score straight from the
    // ingest-cached SoA slabs (bit-identical — the slab bytes ARE the
    // Deinterleave output the covariance kernel would otherwise compute),
    // so the window vector is only assembled for degraded windows or when
    // the calibrator needs packets to learn from.
    const bool slab_fast = !soa_slabs.empty() && live_mask == full_mask;
    // Subcarrier/variance fast path: full-mask windows fold the
    // ingest-cached power rows, so the window vector is likewise only
    // assembled for degraded windows or for the calibrator.
    const bool rows_fast = !power_ring.empty() && live_mask == full_mask;
    const bool need_window =
        (!baseline_fast && !slab_fast && !rows_fast) || calibrator.enabled();
    if (pre_sanitize) FlushMuMedians();
    if (need_window) {
      // mulink-lint: allow(alloc): capacity reserved in ctor; resize never reallocates
      window.resize(config.window_packets);
    }
    for (std::size_t i = 0; i < config.window_packets; ++i) {
      const std::size_t slot_idx = (write_pos + i) % config.window_packets;
      if (need_window) window[i] = ring[slot_idx];
      if (pre_sanitize) {
        mu_window[i] = MuRow(slot_idx);
        median_window[i] = mu_median_ring[slot_idx];
        if (slab_fast) {
          soa_window[i] = soa_slabs.data() + slot_idx * soa_stride;
        }
        if (rows_fast) {
          power_window[i] = power_ring.data() + slot_idx * power_stride;
        }
      } else if (baseline_fast) {
        baseline_window[i] = baseline_ring[slot_idx];
      }
    }
    // Stale window contents from an earlier hop must not leak into the
    // fast paths, so the span is empty whenever the window was not
    // (re)assembled this hop.
    const std::span<const wifi::CsiPacket> window_span =
        need_window ? std::span<const wifi::CsiPacket>(window)
                    : std::span<const wifi::CsiPacket>();

    // Degraded mode: surviving antennas only, fallback statistic and
    // threshold, HMM frozen (its emission model belongs to the primary
    // statistic).
    const bool fallback = live_mask != full_mask && detector.has_threshold();
    Detector::Window scored;
    scored.packets = window_span;
    scored.sanitized = pre_sanitize;
    if (fallback) {
      scored.live_mask = live_mask;
      scored.fallback = true;
    }
    if (pre_sanitize) {
      scored.mu_rows = mu_window;
      scored.mu_medians = median_window;
    }
    if (slab_fast) scored.csi_slabs = soa_window;
    if (rows_fast) scored.power_rows = power_window;
    if (baseline_fast) scored.baseline_scores = baseline_window;
    decision.score = detector.Score(scored, *scratch);
    degraded = fallback;
    if (fallback) {
      decision.occupied = decision.score >= detector.fallback_threshold();
      decision.posterior = decision.occupied ? 1.0 : 0.0;
      decision.degraded = true;
      ++degraded_decisions;
      MULINK_OBS_COUNT(sink, kDegradedDecisions);
    } else {
      if (filter.has_value()) {
        MULINK_OBS_STAGE_TIMER(hmm_timer, sink, kHmmFilter);
        decision.posterior = filter->Update(decision.score);
        decision.occupied = decision.posterior >= config.decision_probability;
        MULINK_OBS_COUNT(sink, kHmmUpdates);
      } else {
        decision.occupied = decision.score >= detector.threshold();
        decision.posterior = decision.occupied ? 1.0 : 0.0;
      }
    }
    if (calibrator.enabled()) {
      CalibrationWindowContext context;
      context.degraded = decision.degraded;
      context.repaired_frames = repaired_since_decision;
      context.agc_frames = agc_frames_since_decision;
      // The ring already holds packets in the detector's expected
      // sanitization state (sanitized on ingest iff the scheme consumes
      // sanitized windows), so the posteriors learn from window_span
      // directly. Calibration requires an owned detector (enforced in
      // Bind).
      calibrator.ObserveDecision(decision.score, decision.posterior,
                                 window_span, *owned_detector, context);
      if (hmm.has_value()) {
        // Pin the HMM's empty emission to the live quiet posterior every
        // window, not just after a profile swap: the posterior absorbs
        // slow drift online, so the filter's flip point moves with the
        // link and the corridor between drift onset and the next swap
        // stops charging false positives. On quiet windows this is a real
        // update; otherwise the posterior (and hence the refit) is a
        // no-op. The filter's temporal state rides through untouched, and
        // step changes still go through the ladder — the posterior refuses
        // to learn from windows the filter calls occupied, so a jump
        // stalls this refit until the swap re-anchors the posterior.
        hmm->RefitEmptyEmission(calibrator.quiet_log_mean(),
                                calibrator.quiet_log_sigma());
      }
    }
    repaired_since_decision = 0;
    agc_frames_since_decision = 0;
    occupied = decision.occupied;
    posterior = decision.posterior;
    MULINK_OBS_COUNT(sink, kDecisions);
    MULINK_OBS_GAUGE(sink, kLastScore, decision.score);
    MULINK_OBS_GAUGE(sink, kPosterior, decision.posterior);
    return decision;
  }

  double* MuRow(std::size_t slot) {
    return mu_ring.data() + slot * shape.subcarriers;
  }

  // Cross-subcarrier medians of the mu rows ingested since the last flush
  // (at most one window's worth), batched through MuRowMediansInto — the
  // same medians the unprepared path takes per window. A hop of 1 runs
  // exactly one row.
  void FlushMuMedians() {
    const std::size_t window_packets = config.window_packets;
    const std::size_t pending = mu_median_pending;
    for (std::size_t j = 0; j < pending; ++j) {
      const std::size_t slot =
          (write_pos + window_packets - pending + j) % window_packets;
      pending_rows[j] = MuRow(slot);
    }
    MuRowMediansInto(std::span<const double* const>(pending_rows.data(),
                                                    pending),
                     det().num_subcarriers(), pending_medians.data(),
                     mu_median_scratch);
    for (std::size_t j = 0; j < pending; ++j) {
      const std::size_t slot =
          (write_pos + window_packets - pending + j) % window_packets;
      mu_median_ring[slot] = pending_medians[j];
    }
    mu_median_pending = 0;
  }

  // True when every cached baseline distance in the (full) ring was
  // computed against the detector's current amplitude profile. A ladder
  // swap (ApplyProfile) bumps the epoch, which falls back to full window
  // rescoring until the ring refills with fresh stamps.
  bool BaselineCacheFresh(std::uint64_t epoch) const {
    for (std::size_t i = 0; i < config.window_packets; ++i) {
      if (baseline_epoch_ring[i] != epoch) return false;
    }
    return true;
  }

  void Reset() {
    ClearStream();
    if (filter.has_value()) filter->Reset();
    if (guard.has_value()) guard->Reset();
    calibrator.Reset(det());
  }

  // Empty ring, no belief, no degraded or taint tallies, no recorded
  // metrics (Bind and Reset).
  void ClearStream() {
    write_pos = 0;
    count = 0;
    packets_since_decision = 0;
    mu_median_pending = 0;
    occupied = false;
    posterior = 0.0;
    degraded = false;
    degraded_decisions = 0;
    repaired_since_decision = 0;
    agc_frames_since_decision = 0;
    metrics.Reset();
    result.decisions.clear();
    result.occupied = false;
    result.posterior = 0.0;
  }

  const Shape shape;
  const bool pre_sanitize;  // shape.sanitized
  // False while parked (between RemoveLink and the next Bind).
  bool bound = false;
  // While bound, exactly one of owned/shared is set; `view` is the
  // scoring-side alias. Calibration (which rewrites thresholds and profiles
  // in place) is only legal on owned links. The owned detector lives inline:
  // the LinkState itself sits behind a unique_ptr, so its address is stable.
  std::optional<Detector> owned_detector;
  std::shared_ptr<const Detector> shared_detector;
  const Detector* view = nullptr;
  StreamingConfig config;
  // Frame validation in front of the ring (config.guard_enabled links).
  std::optional<nic::FrameGuard> guard;
  bool degraded = false;  // last decision used the fallback statistic
  std::size_t degraded_decisions = 0;
  // Taint bookkeeping for the calibration ladder: repaired (flagged but
  // usable) frames — and the subset carrying the RSSI-outlier AGC fault —
  // admitted since the last emitted decision.
  std::size_t repaired_since_decision = 0;
  std::size_t agc_frames_since_decision = 0;
  LinkCalibrator calibrator;
  std::optional<PresenceHmm> hmm;
  std::optional<PresenceHmm::Filter> filter;  // references hmm; do not move
  std::vector<wifi::CsiPacket> ring;
  std::vector<wifi::CsiPacket> window;
  // Ingest-time multipath factors riding the packet ring (pre_sanitize
  // links only): MuRow(slot) / mu_median_ring[slot] belong to ring[slot];
  // mu_window / median_window are their window-ordered views for
  // Detector::Window.
  std::vector<double> mu_ring;
  std::vector<double> mu_median_ring;
  std::vector<const double*> mu_window;
  std::vector<double> median_window;
  // Newest ring slots whose mu median is not yet taken (<= window), and
  // FlushMuMedians' oldest-first views of them.
  std::size_t mu_median_pending = 0;
  std::vector<const double*> pending_rows;
  std::vector<double> pending_medians;
  MuMedianScratch mu_median_scratch;
  // Ingest-time split-complex slabs riding the ring (combined-scheme links
  // only): the slab at soa_slabs[slot * soa_stride] holds ring[slot]'s CSI
  // deinterleaved antenna-major (re rows then im rows), and soa_window is
  // the window-ordered pointer view handed to Detector::Score. One flat
  // block so the per-decision window read is a sequential stream.
  std::vector<double> soa_slabs;
  std::size_t soa_stride = 0;
  std::vector<const double*> soa_window;
  // Ingest-time power rows riding the ring (subcarrier and variance links
  // only): power_ring[slot * power_stride] is ring[slot]'s
  // Detector::PowerRowInto row; power_window is the window-ordered view.
  std::vector<double> power_ring;
  std::size_t power_stride = 0;
  std::vector<const double*> power_window;
  // Ingest-time baseline distances riding the ring (baseline links only),
  // stamped with the profile epoch they were computed under.
  std::vector<double> baseline_ring;
  std::vector<std::uint64_t> baseline_epoch_ring;
  std::vector<double> baseline_window;
  std::size_t write_pos = 0;
  std::size_t count = 0;
  std::size_t packets_since_decision = 0;
  bool occupied = false;
  double posterior = 0.0;
  // Own scratch by default; engine-owned shared workspace in fleet mode
  // (`scratch` then aliases the engine's, `own_scratch` stays null).
  std::unique_ptr<DetectorScratch> own_scratch;
  DetectorScratch* scratch = nullptr;
  BatchResult result;
  // Per-link observability shard; merged in link order by AggregateMetrics.
  obs::Registry metrics;
  bool metrics_on = true;
};

SensingEngine::SensingEngine() = default;
SensingEngine::~SensingEngine() = default;
SensingEngine::SensingEngine(SensingEngine&&) noexcept = default;
SensingEngine& SensingEngine::operator=(SensingEngine&&) noexcept = default;

std::size_t SensingEngine::AddLink(Detector detector,
                                   const std::vector<double>& empty_scores,
                                   StreamingConfig config) {
  return BindLink(std::optional<Detector>(std::move(detector)), nullptr,
                  empty_scores, config);
}

std::size_t SensingEngine::AddLink(std::shared_ptr<const Detector> detector,
                                   const std::vector<double>& empty_scores,
                                   StreamingConfig config) {
  MULINK_REQUIRE(detector != nullptr,
                 "SensingEngine: shared detector must be non-null");
  return BindLink(std::nullopt, std::move(detector), empty_scores, config);
}

std::size_t SensingEngine::BindLink(std::optional<Detector> owned,
                                    std::shared_ptr<const Detector> shared,
                                    const std::vector<double>& empty_scores,
                                    const StreamingConfig& config) {
  const LinkState::Shape shape =
      LinkState::ShapeOf(owned.has_value() ? *owned : *shared, config);
  // The most recently freed slot is reused first; its parked buffers are
  // re-bound when the shape matches and rebuilt otherwise.
  const bool reuse = !free_slots_.empty();
  const std::size_t slot = reuse ? free_slots_.back() : links_.size();
  if (reuse) {
    free_slots_.pop_back();
    if (links_[slot]->shape != shape) {
      // mulink-lint: allow(alloc): AddLink, setup path
      links_[slot] = std::make_unique<LinkState>(shape, shared_scratch_.get());
    }
  } else {
    // mulink-lint: allow(alloc): AddLink, setup path
    links_.push_back(std::make_unique<LinkState>(shape, shared_scratch_.get()));
  }
  try {
    links_[slot]->Bind(std::move(owned), std::move(shared), empty_scores,
                       config);
  } catch (...) {
    // A rejected link leaves the slot table as it was.
    links_[slot]->Park();
    if (reuse) {
      // mulink-lint: allow(alloc): rejected AddLink, setup path
      free_slots_.push_back(slot);
    } else {
      links_.pop_back();
    }
    throw;
  }
  ++active_links_;
  return slot;
}

void SensingEngine::RemoveLink(std::size_t link) {
  LinkState& state = Link(link);
  // The link's counters and histograms outlive it in the engine totals.
  retired_metrics_.MergeFrom(state.metrics);
  state.Park();
  // mulink-lint: allow(alloc): eviction path, off the per-packet hot loop
  free_slots_.push_back(link);
  --active_links_;
}

bool SensingEngine::LinkActive(std::size_t link) const {
  return link < links_.size() && links_[link]->bound;
}

void SensingEngine::UseSharedScratch() {
  MULINK_REQUIRE(links_.empty(),
                 "SensingEngine: UseSharedScratch must precede AddLink");
  if (shared_scratch_ == nullptr) {
    // mulink-lint: allow(alloc): setup path
    shared_scratch_ = std::make_unique<DetectorScratch>();
  }
}

SensingEngine::LinkState& SensingEngine::Link(std::size_t link) {
  MULINK_REQUIRE(LinkActive(link),
                 "SensingEngine: link out of range or removed");
  return *links_[link];
}

const SensingEngine::LinkState& SensingEngine::Link(std::size_t link) const {
  MULINK_REQUIRE(LinkActive(link),
                 "SensingEngine: link out of range or removed");
  return *links_[link];
}

const BatchResult& SensingEngine::ProcessBatch(
    std::size_t link, std::span<const wifi::CsiPacket> packets) {
  LinkState& state = Link(link);
  state.metrics_on = metrics_enabled_;
  if (metrics_enabled_) MULINK_OBS_COUNT_REF(state.metrics, kBatches, 1);
  state.result.decisions.clear();
  for (const auto& packet : packets) {
    if (auto decision = state.Push(packet)) {
      // mulink-lint: allow(alloc): batch output; clear() keeps capacity, warm after first batch
      state.result.decisions.push_back(*decision);
    }
  }
  state.result.occupied = state.occupied;
  state.result.posterior = state.posterior;
  return state.result;
}

const BatchResult& SensingEngine::ProcessBatch(
    std::span<const wifi::CsiPacket> packets) {
  MULINK_REQUIRE(active_links_ == 1 && links_.size() == 1,
                 "SensingEngine: single-link ProcessBatch needs exactly one "
                 "registered link");
  return ProcessBatch(0, packets);
}

std::optional<PresenceDecision> SensingEngine::ProcessPacket(
    std::size_t link, const wifi::CsiPacket& packet) {
  LinkState& state = Link(link);
  state.metrics_on = metrics_enabled_;
  return state.Push(packet);
}

bool SensingEngine::occupied(std::size_t link) const {
  return Link(link).occupied;
}

double SensingEngine::posterior(std::size_t link) const {
  return Link(link).posterior;
}

nic::LinkHealth SensingEngine::Health(std::size_t link) const {
  const LinkState& state = Link(link);
  nic::LinkHealth health;
  if (state.guard.has_value()) health = state.guard->health();
  health.degraded = state.degraded;
  health.degraded_decisions = state.degraded_decisions;
  // The ladder alone fills profile_drift and empty_score_ewma.
  state.calibrator.FillHealth(health);
  return health;
}

const LinkCalibrator& SensingEngine::Calibrator(std::size_t link) const {
  return Link(link).calibrator;
}

const obs::Registry& SensingEngine::Metrics(std::size_t link) const {
  return Link(link).metrics;
}

obs::Registry SensingEngine::AggregateMetrics() const {
  obs::Registry total = retired_metrics_;
  for (const auto& link : links_) {
    if (link->bound) total.MergeFrom(link->metrics);
  }
  return total;
}

const Detector& SensingEngine::detector(std::size_t link) const {
  return Link(link).det();
}

const StreamingConfig& SensingEngine::config(std::size_t link) const {
  return Link(link).config;
}

void SensingEngine::Reset(std::size_t link) { Link(link).Reset(); }

void SensingEngine::ResetAll() {
  retired_metrics_.Reset();
  for (auto& link : links_) {
    if (link->bound) link->Reset();
  }
}

}  // namespace mulink::core
