// Equivalence suite for the workspace-based sensing engine: the scratch
// Score path and ProcessBatch/ProcessPacket must produce BIT-IDENTICAL
// results to the legacy allocating API and to scoring each window's raw
// packets — the engine is a pure hot-path restructuring, not a numerical
// change — and golden decision digests pin the engine's decisions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "core/detector.h"
#include "core/engine.h"
#include "core/multipath_factor.h"
#include "core/music.h"
#include "core/sanitize.h"
#include "core/subcarrier_weighting.h"
#include "decision_digest.h"
#include "dsp/stats.h"
#include "experiments/scenario.h"
#include "obs/metrics.h"

using namespace mulink;
namespace ex = mulink::experiments;

namespace {

struct EngineFixture {
  ex::LinkCase link = ex::MakeClassroomLink();
  nic::ChannelSimulator sim = ex::MakeSimulator(link);
  Rng rng{321};
  std::vector<wifi::CsiPacket> calibration =
      sim.CaptureSession(300, std::nullopt, rng);
  std::vector<wifi::CsiPacket> empty_session =
      sim.CaptureSession(200, std::nullopt, rng);
  std::vector<wifi::CsiPacket> occupied_session;

  EngineFixture() {
    propagation::HumanBody body;
    body.position = {3.0, 4.2};
    occupied_session = sim.CaptureSession(200, body, rng);
  }

  core::Detector Calibrated(core::DetectionScheme scheme) const {
    core::DetectorConfig config;
    config.scheme = scheme;
    return core::Detector::Calibrate(calibration, sim.band(), sim.array(),
                                     config);
  }
};

EngineFixture& Fixture() {
  static EngineFixture f;
  return f;
}

const core::DetectionScheme kAllSchemes[] = {
    core::DetectionScheme::kBaseline,
    core::DetectionScheme::kSubcarrierWeighting,
    core::DetectionScheme::kSubcarrierAndPathWeighting,
    core::DetectionScheme::kVarianceMobile,
};

// The scratch Score must be bit-identical to the legacy allocating Score
// for every scheme, on empty and occupied windows alike.
TEST(EngineEquivalence, ScratchScoreBitIdenticalAllSchemes) {
  auto& f = Fixture();
  for (auto scheme : kAllSchemes) {
    const auto detector = f.Calibrated(scheme);
    core::DetectorScratch scratch;
    for (const auto* session : {&f.empty_session, &f.occupied_session}) {
      const std::span<const wifi::CsiPacket> span(*session);
      for (std::size_t start = 0; start + 25 <= session->size(); start += 25) {
        const std::vector<wifi::CsiPacket> window(
            session->begin() + static_cast<std::ptrdiff_t>(start),
            session->begin() + static_cast<std::ptrdiff_t>(start + 25));
        const double legacy = detector.Score(window);
        const double scratch_score =
            detector.Score(span.subspan(start, 25), scratch);
        EXPECT_EQ(legacy, scratch_score)
            << core::ToString(scheme) << " window at " << start;
      }
    }
  }
}

// Reusing one scratch across windows of different content must not leak
// state between calls: A, then B, then A again must reproduce A's score
// exactly.
TEST(EngineEquivalence, ScratchReuseIsStateless) {
  auto& f = Fixture();
  for (auto scheme : kAllSchemes) {
    const auto detector = f.Calibrated(scheme);
    core::DetectorScratch scratch;
    const std::span<const wifi::CsiPacket> empty(f.empty_session);
    const std::span<const wifi::CsiPacket> occupied(f.occupied_session);
    const double a1 = detector.Score(empty.subspan(0, 25), scratch);
    const double b = detector.Score(occupied.subspan(50, 25), scratch);
    const double a2 = detector.Score(empty.subspan(0, 25), scratch);
    EXPECT_EQ(a1, a2) << core::ToString(scheme);
    EXPECT_NE(a1, b) << core::ToString(scheme)
                     << ": occupied window scored like an empty one";
  }
}

// ScoreSession (now span-based internally) must agree with scoring each
// window through the legacy API.
TEST(EngineEquivalence, ScoreSessionMatchesPerWindowScores) {
  auto& f = Fixture();
  const auto detector =
      f.Calibrated(core::DetectionScheme::kSubcarrierAndPathWeighting);
  const auto scores = detector.ScoreSession(f.occupied_session);
  ASSERT_EQ(scores.size(), f.occupied_session.size() / 25);
  for (std::size_t i = 0; i < scores.size(); ++i) {
    const std::vector<wifi::CsiPacket> window(
        f.occupied_session.begin() + static_cast<std::ptrdiff_t>(i * 25),
        f.occupied_session.begin() + static_cast<std::ptrdiff_t>((i + 1) * 25));
    EXPECT_EQ(scores[i], detector.Score(window));
  }
}

std::vector<double> EmptyScores(const EngineFixture& f,
                                const core::Detector& detector) {
  std::vector<double> scores;
  for (std::size_t start = 0; start + 25 <= f.empty_session.size();
       start += 25) {
    const std::vector<wifi::CsiPacket> window(
        f.empty_session.begin() + static_cast<std::ptrdiff_t>(start),
        f.empty_session.begin() + static_cast<std::ptrdiff_t>(start + 25));
    scores.push_back(detector.Score(window));
  }
  return scores;
}

// Link 0's decisions over `stream`, fed in uneven batches.
std::vector<core::PresenceDecision> ProcessChopped(
    core::SensingEngine& engine, std::span<const wifi::CsiPacket> stream) {
  std::vector<core::PresenceDecision> decisions;
  const std::size_t cuts[] = {7, 40, 1, 25, 60, 3};
  for (std::size_t pos = 0, cut = 0; pos < stream.size(); ++cut) {
    const std::size_t n = std::min(cuts[cut % 6], stream.size() - pos);
    const auto& result = engine.ProcessBatch(0, stream.subspan(pos, n));
    decisions.insert(decisions.end(), result.decisions.begin(),
                     result.decisions.end());
    pos += n;
  }
  return decisions;
}

std::uint64_t FixtureDigest(const EngineFixture& f) {
  golden::Fnv64 h;
  for (const auto* session :
       {&f.calibration, &f.empty_session, &f.occupied_session}) {
    h.U64(golden::PacketDigest(*session));
  }
  return h.value();
}

// Pinned digest of the fixture's simulated sessions: when it moves, the
// simulator's output changed (toolchain, libm), not the decision path, and
// the decision digests below must be re-recorded.
constexpr std::uint64_t kFixtureInputDigest = 0x24096dfb845c4a1dull;

// Combined-scheme decisions at hop 10, HMM on and off, over a stream
// chopped into uneven batches, pinned bit for bit.
TEST(GoldenDecisions, CombinedSchemeHop10) {
  auto& f = Fixture();
  ASSERT_EQ(FixtureDigest(f), kFixtureInputDigest) << "input changed";
  const std::uint64_t kGolden[] = {0xa07693b38786459eull,  // use_hmm = false
                                   0x7d1e891b2231880cull};  // true
  for (bool use_hmm : {false, true}) {
    auto detector =
        f.Calibrated(core::DetectionScheme::kSubcarrierAndPathWeighting);
    const auto empty_scores = EmptyScores(f, detector);
    detector.SetThreshold(1.0);

    core::StreamingConfig config;
    config.window_packets = 25;
    config.hop_packets = 10;
    config.use_hmm = use_hmm;

    core::SensingEngine engine;
    engine.AddLink(std::move(detector), empty_scores, config);
    const auto decisions = ProcessChopped(engine, f.occupied_session);
    ASSERT_FALSE(decisions.empty());
    EXPECT_EQ(decisions.back().occupied, engine.occupied(0));
    EXPECT_EQ(decisions.back().posterior, engine.posterior(0));
    const std::uint64_t digest = golden::DecisionDigest(
        decisions, engine.Health(0), engine.Calibrator(0));
    EXPECT_EQ(digest, kGolden[use_hmm])
        << "use_hmm=" << use_hmm << std::hex << " digest=0x" << digest;
  }
}

// Every scheme on clean input (the fixture's empty then occupied session),
// window 25, hop 1 and 10, HMM on and off, guard and calibration off, over
// a stream chopped into uneven batches, pinned bit for bit.
TEST(GoldenDecisions, CleanInputAllSchemes) {
  auto& f = Fixture();
  ASSERT_EQ(FixtureDigest(f), kFixtureInputDigest) << "input changed";
  std::vector<wifi::CsiPacket> stream(f.empty_session);
  stream.insert(stream.end(), f.occupied_session.begin(),
                f.occupied_session.end());
  ASSERT_EQ(golden::PacketDigest(stream), 0x3c03df30665ef40bull)
      << "input changed";

  // Rows in loop order: scheme (kAllSchemes) x hop {1, 10} x use_hmm
  // {false, true}.
  const std::uint64_t kGolden[] = {
      0x4202976f7e6e29abull, 0x32a34ac36fe209e6ull,  // baseline, hop 1
      0x105c180ae07b80d6ull, 0xd241494e52292065ull,  // baseline, hop 10
      0x7c94344d3b46af52ull, 0x1de89d8bfaa7bbd5ull,  // subcarrier, hop 1
      0xb81207f4ce96afb8ull, 0xf7acf0f43bf3e6e2ull,  // subcarrier, hop 10
      0x8d96772f6c1cf206ull, 0xeeb83a1ad4f03070ull,  // combined, hop 1
      0x1429b591839a1940ull, 0x9c8673772a378e26ull,  // combined, hop 10
      0x5d623a0d867a3f62ull, 0x6a2ff504ffab760eull,  // variance, hop 1
      0xaec586e16dfc6873ull, 0xd2fd3bb0716b8f79ull,  // variance, hop 10
  };
  std::size_t row = 0;
  for (auto scheme : kAllSchemes) {
    auto calibrated = f.Calibrated(scheme);
    const auto empty_scores = EmptyScores(f, calibrated);
    calibrated.SetThreshold(1.0);
    for (const std::size_t hop : {std::size_t{1}, std::size_t{10}}) {
      for (const bool use_hmm : {false, true}) {
        core::StreamingConfig config;
        config.window_packets = 25;
        config.hop_packets = hop;
        config.use_hmm = use_hmm;

        core::SensingEngine engine;
        engine.AddLink(calibrated, empty_scores, config);
        const auto decisions = ProcessChopped(engine, stream);
        ASSERT_EQ(decisions.size(), (stream.size() - 25) / hop + 1);
        const std::uint64_t digest = golden::DecisionDigest(
            decisions, engine.Health(0), engine.Calibrator(0));
        EXPECT_EQ(digest, kGolden[row++])
            << core::ToString(scheme) << " hop=" << hop
            << " use_hmm=" << use_hmm << std::hex << " digest=0x" << digest;
      }
    }
  }
}

// Repeated ProcessBatch on the same link must keep producing identical
// decisions after Reset — the reused result/ring/scratch buffers must not
// accumulate state.
TEST(EngineEquivalence, RepeatedBatchesAfterResetAreIdentical) {
  auto& f = Fixture();
  auto detector =
      f.Calibrated(core::DetectionScheme::kSubcarrierWeighting);
  const auto empty_scores = EmptyScores(f, detector);
  detector.SetThreshold(1.0);

  core::SensingEngine engine;
  engine.AddLink(std::move(detector), empty_scores, {});
  const std::span<const wifi::CsiPacket> session(f.occupied_session);

  const auto& first = engine.ProcessBatch(session);
  std::vector<core::PresenceDecision> reference(first.decisions);
  ASSERT_FALSE(reference.empty());

  for (int round = 0; round < 3; ++round) {
    engine.Reset(0);
    const auto& again = engine.ProcessBatch(session);
    ASSERT_EQ(again.decisions.size(), reference.size()) << "round " << round;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(again.decisions[i].score, reference[i].score);
      EXPECT_EQ(again.decisions[i].posterior, reference[i].posterior);
      EXPECT_EQ(again.decisions[i].occupied, reference[i].occupied);
    }
  }
}

// The warm profile-covariance cache must be invalidated when the detector's
// retained calibration set changes: a scratch warmed before
// RefreshAngularProfile must score exactly like a fresh one afterwards.
TEST(EngineEquivalence, ProfileCacheInvalidatedByAngularRefresh) {
  auto& f = Fixture();
  auto detector =
      f.Calibrated(core::DetectionScheme::kSubcarrierAndPathWeighting);
  core::DetectorScratch warm;
  const std::span<const wifi::CsiPacket> occupied(f.occupied_session);
  const double before = detector.Score(occupied.subspan(25, 25), warm);

  const std::vector<wifi::CsiPacket> quiet(f.empty_session.begin(),
                                           f.empty_session.begin() + 25);
  detector.RefreshAngularProfile(
      core::SanitizePhase(quiet, detector.band()));

  const double with_warm = detector.Score(occupied.subspan(25, 25), warm);
  core::DetectorScratch fresh;
  const double with_fresh = detector.Score(occupied.subspan(25, 25), fresh);
  EXPECT_EQ(with_warm, with_fresh);
  EXPECT_NE(with_warm, before) << "the refresh did not move the profile";
}

// One scratch shared across two different detector instances must not reuse
// the first detector's cached profile stack for the second.
TEST(EngineEquivalence, ScratchSharedAcrossDetectorsIsSafe) {
  auto& f = Fixture();
  const auto d0 =
      f.Calibrated(core::DetectionScheme::kSubcarrierAndPathWeighting);
  core::DetectorConfig config;
  config.scheme = core::DetectionScheme::kSubcarrierAndPathWeighting;
  config.retained_calibration_packets = 64;  // different profile content
  const auto d1 = core::Detector::Calibrate(f.calibration, f.sim.band(),
                                            f.sim.array(), config);

  core::DetectorScratch shared;
  const std::span<const wifi::CsiPacket> occupied(f.occupied_session);
  (void)d0.Score(occupied.subspan(0, 25), shared);  // warm with d0's profile
  const double shared_score = d1.Score(occupied.subspan(0, 25), shared);
  core::DetectorScratch fresh;
  EXPECT_EQ(shared_score, d1.Score(occupied.subspan(0, 25), fresh));
}

// The cached per-subcarrier stack recombination computes the same weighted
// sample covariance as the direct per-packet scan, up to summation order.
TEST(SubcarrierCovarianceStack, MatchesDirectSampleCovariance) {
  auto& f = Fixture();
  const std::vector<wifi::CsiPacket> packets(
      f.calibration.begin(), f.calibration.begin() + 64);
  std::vector<double> weights(packets[0].NumSubcarriers());
  for (std::size_t k = 0; k < weights.size(); ++k) {
    weights[k] = (k % 7 == 0) ? 0.0 : 1.0 / static_cast<double>(k + 1);
  }

  const auto direct = core::SampleCovariance(packets, weights);
  core::SubcarrierCovarianceStack stack;
  core::BuildSubcarrierCovarianceStack(
      std::span<const wifi::CsiPacket>(packets), stack);
  linalg::CMatrix combined;
  core::CombineSubcarrierCovariances(stack, weights, combined);

  ASSERT_EQ(combined.rows(), direct.rows());
  ASSERT_EQ(combined.cols(), direct.cols());
  for (std::size_t i = 0; i < direct.rows(); ++i) {
    for (std::size_t j = 0; j < direct.cols(); ++j) {
      EXPECT_NEAR(std::abs(combined.At(i, j) - direct.At(i, j)), 0.0,
                  1e-12 * std::abs(direct.At(i, j)) + 1e-15)
          << "entry (" << i << "," << j << ")";
    }
  }
}

// Multi-link bookkeeping: links are independent and indexed stably.
TEST(SensingEngine, LinksAreIndependent) {
  auto& f = Fixture();
  auto d0 = f.Calibrated(core::DetectionScheme::kSubcarrierWeighting);
  auto d1 = f.Calibrated(core::DetectionScheme::kBaseline);
  d0.SetThreshold(1.0);
  d1.SetThreshold(1.0);

  core::StreamingConfig config;
  config.use_hmm = false;
  core::SensingEngine engine;
  const auto i0 = engine.AddLink(std::move(d0), {}, config);
  const auto i1 = engine.AddLink(std::move(d1), {}, config);
  ASSERT_EQ(engine.NumLinks(), 2u);

  const std::span<const wifi::CsiPacket> session(f.occupied_session);
  const auto& r0 = engine.ProcessBatch(i0, session.subspan(0, 50));
  ASSERT_EQ(r0.decisions.size(), 2u);
  // Link 1 saw nothing yet.
  EXPECT_EQ(engine.posterior(i1), 0.0);
  EXPECT_FALSE(engine.occupied(i1));

  const auto& r1 = engine.ProcessBatch(i1, session.subspan(0, 50));
  ASSERT_EQ(r1.decisions.size(), 2u);
  // Different schemes -> different scores on the same packets.
  EXPECT_NE(r0.decisions[0].score, r1.decisions[0].score);
}

// Reset mid-stream must restore a link to its just-constructed state:
// decisions on the tail after Reset are bit-identical to a fresh engine fed
// the same tail, for both a mid-window cut and a mid-hop cut.
TEST(SensingEngine, ResetMidStreamMatchesFreshEngine) {
  auto& f = Fixture();
  for (std::size_t cut : {13u, 30u}) {
    for (bool guard : {false, true}) {
      core::StreamingConfig config;
      config.use_hmm = false;
      config.guard_enabled = guard;

      auto detector =
          f.Calibrated(core::DetectionScheme::kSubcarrierWeighting);
      detector.SetThreshold(1.0);
      const std::span<const wifi::CsiPacket> session(f.occupied_session);

      core::SensingEngine resumed;
      resumed.AddLink(detector, {}, config);
      resumed.ProcessBatch(0, session.subspan(0, cut));
      resumed.Reset(0);
      const auto& after_reset =
          resumed.ProcessBatch(0, session.subspan(cut));

      core::SensingEngine fresh;
      fresh.AddLink(std::move(detector), {}, config);
      const auto& from_fresh = fresh.ProcessBatch(0, session.subspan(cut));

      ASSERT_EQ(after_reset.decisions.size(), from_fresh.decisions.size())
          << "cut=" << cut << " guard=" << guard;
      for (std::size_t i = 0; i < from_fresh.decisions.size(); ++i) {
        EXPECT_EQ(after_reset.decisions[i].timestamp_s,
                  from_fresh.decisions[i].timestamp_s);
        EXPECT_EQ(after_reset.decisions[i].score,
                  from_fresh.decisions[i].score);
        EXPECT_EQ(after_reset.decisions[i].posterior,
                  from_fresh.decisions[i].posterior);
        EXPECT_EQ(after_reset.decisions[i].occupied,
                  from_fresh.decisions[i].occupied);
      }
    }
  }
}

// ResetAll is Reset over every link: both links of a two-link engine must
// match their fresh counterparts on the tail.
TEST(SensingEngine, ResetAllMatchesFreshEngines) {
  auto& f = Fixture();
  core::StreamingConfig config;
  config.use_hmm = false;
  config.guard_enabled = true;

  auto d0 = f.Calibrated(core::DetectionScheme::kSubcarrierWeighting);
  auto d1 = f.Calibrated(core::DetectionScheme::kBaseline);
  d0.SetThreshold(1.0);
  d1.SetThreshold(1.0);
  const std::span<const wifi::CsiPacket> session(f.occupied_session);

  core::SensingEngine resumed;
  resumed.AddLink(d0, {}, config);
  resumed.AddLink(d1, {}, config);
  resumed.ProcessBatch(0, session.subspan(0, 40));
  resumed.ProcessBatch(1, session.subspan(0, 17));
  resumed.ResetAll();

  core::SensingEngine fresh;
  fresh.AddLink(std::move(d0), {}, config);
  fresh.AddLink(std::move(d1), {}, config);

  for (std::size_t link = 0; link < 2; ++link) {
    const auto& a = resumed.ProcessBatch(link, session.subspan(40));
    std::vector<core::PresenceDecision> reference(a.decisions);
    const auto& b = fresh.ProcessBatch(link, session.subspan(40));
    ASSERT_EQ(reference.size(), b.decisions.size()) << "link " << link;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(reference[i].score, b.decisions[i].score);
      EXPECT_EQ(reference[i].occupied, b.decisions[i].occupied);
    }
  }
}

// The single-link convenience overload refuses multi-link engines.
TEST(SensingEngine, SingleLinkOverloadRequiresOneLink) {
  auto& f = Fixture();
  core::SensingEngine engine;
  const std::span<const wifi::CsiPacket> session(f.occupied_session);
  EXPECT_THROW(engine.ProcessBatch(session.subspan(0, 25)),
               PreconditionError);
}

// Recording metrics must never change decisions: the same stream scored with
// metrics on and off produces bit-identical scores, posteriors and verdicts.
TEST(SensingEngine, MetricsOnOffDecisionsBitIdentical) {
  auto& f = Fixture();
  for (bool guard : {false, true}) {
    core::StreamingConfig config;
    config.guard_enabled = guard;

    auto detector =
        f.Calibrated(core::DetectionScheme::kSubcarrierAndPathWeighting);
    const auto empty_scores = EmptyScores(f, detector);
    detector.SetThreshold(1.0);
    const std::span<const wifi::CsiPacket> session(f.occupied_session);

    core::SensingEngine with_metrics;
    with_metrics.AddLink(detector, empty_scores, config);
    with_metrics.SetMetricsEnabled(true);
    const auto& on = with_metrics.ProcessBatch(0, session);
    std::vector<core::PresenceDecision> reference(on.decisions);

    core::SensingEngine without_metrics;
    without_metrics.AddLink(std::move(detector), empty_scores, config);
    without_metrics.SetMetricsEnabled(false);
    const auto& off = without_metrics.ProcessBatch(0, session);

    ASSERT_EQ(reference.size(), off.decisions.size()) << "guard=" << guard;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(reference[i].score, off.decisions[i].score);
      EXPECT_EQ(reference[i].posterior, off.decisions[i].posterior);
      EXPECT_EQ(reference[i].occupied, off.decisions[i].occupied);
    }
    // The disabled engine must have recorded nothing at all.
    EXPECT_TRUE(without_metrics.Metrics(0).Empty());
  }
}

// The per-link registry mirrors what the engine actually did: exact packet
// and decision counts, windows scored, and the profile cache hit pattern
// (first window rebuilds, later windows hit the warm stack).
TEST(SensingEngine, MetricsCountersMatchBatchActivity) {
  auto& f = Fixture();
  auto detector =
      f.Calibrated(core::DetectionScheme::kSubcarrierAndPathWeighting);
  const auto empty_scores = EmptyScores(f, detector);
  detector.SetThreshold(1.0);

  core::StreamingConfig config;
  config.window_packets = 25;
  config.hop_packets = 25;
  core::SensingEngine engine;
  engine.AddLink(std::move(detector), empty_scores, config);

  const std::span<const wifi::CsiPacket> session(f.occupied_session);
  const auto& result = engine.ProcessBatch(0, session);
  const auto& m = engine.Metrics(0);
  if constexpr (obs::kEnabled) {
    EXPECT_EQ(m.Get(obs::Counter::kPacketsIngested), session.size());
    EXPECT_EQ(m.Get(obs::Counter::kBatches), 1u);
    EXPECT_EQ(m.Get(obs::Counter::kDecisions), result.decisions.size());
    EXPECT_EQ(m.Get(obs::Counter::kWindowsScored), result.decisions.size());
    EXPECT_EQ(m.Get(obs::Counter::kHmmUpdates), result.decisions.size());
    ASSERT_GT(result.decisions.size(), 1u);
    EXPECT_EQ(m.Get(obs::Counter::kProfileStackRebuilds), 1u);
    EXPECT_EQ(m.Get(obs::Counter::kProfileStackHits),
              result.decisions.size() - 1);
    EXPECT_EQ(m.StageLatency(obs::Stage::kScore).count,
              result.decisions.size());
    EXPECT_TRUE(m.GaugeSet(obs::Gauge::kLastScore));
    EXPECT_DOUBLE_EQ(m.Get(obs::Gauge::kLastScore),
                     result.decisions.back().score);
    // AggregateMetrics over one link is that link's registry.
    const obs::Registry totals = engine.AggregateMetrics();
    EXPECT_EQ(totals.counters(), m.counters());
    // Reset clears the shard with the rest of the link state.
    engine.Reset(0);
    EXPECT_TRUE(engine.Metrics(0).Empty());
  } else {
    EXPECT_TRUE(m.Empty());
  }
}

// Packet-at-a-time ingest (the serving-tier entry point) must be
// decision-for-decision identical to batch ingest of the same stream.
TEST(EngineEquivalence, ProcessPacketMatchesProcessBatch) {
  auto& f = Fixture();
  for (const auto scheme : kAllSchemes) {
    auto detector = f.Calibrated(scheme);
    const auto empty_scores = EmptyScores(f, detector);
    detector.SetThreshold(1.0);

    core::StreamingConfig config;
    config.window_packets = 25;
    config.hop_packets = 10;
    config.use_hmm = false;

    core::SensingEngine batch_engine;
    batch_engine.AddLink(detector, empty_scores, config);
    core::SensingEngine packet_engine;
    packet_engine.AddLink(std::move(detector), empty_scores, config);

    const std::span<const wifi::CsiPacket> session(f.occupied_session);
    const auto& batch = batch_engine.ProcessBatch(0, session);
    std::vector<core::PresenceDecision> packet_decisions;
    for (const auto& packet : f.occupied_session) {
      if (auto d = packet_engine.ProcessPacket(0, packet)) {
        packet_decisions.push_back(*d);
      }
    }

    ASSERT_EQ(packet_decisions.size(), batch.decisions.size());
    ASSERT_FALSE(packet_decisions.empty());
    for (std::size_t i = 0; i < packet_decisions.size(); ++i) {
      EXPECT_EQ(packet_decisions[i].timestamp_s,
                batch.decisions[i].timestamp_s);
      EXPECT_EQ(packet_decisions[i].score, batch.decisions[i].score);
      EXPECT_EQ(packet_decisions[i].posterior, batch.decisions[i].posterior);
      EXPECT_EQ(packet_decisions[i].occupied, batch.decisions[i].occupied);
    }
    EXPECT_EQ(packet_engine.occupied(0), batch_engine.occupied(0));
    EXPECT_EQ(packet_engine.posterior(0), batch_engine.posterior(0));
  }
}

// Fleet-mode registration — many links on one immutable shared detector,
// scoring through the engine-owned shared scratch — must be bit-identical
// to per-link owned copies with private scratch.
TEST(EngineEquivalence, SharedDetectorSharedScratchMatchesOwned) {
  auto& f = Fixture();
  auto detector =
      f.Calibrated(core::DetectionScheme::kSubcarrierAndPathWeighting);
  const auto empty_scores = EmptyScores(f, detector);
  detector.SetThreshold(1.0);
  const auto shared =
      std::make_shared<const core::Detector>(std::move(detector));

  core::StreamingConfig config;
  config.window_packets = 25;
  config.hop_packets = 5;

  core::SensingEngine owned_engine;
  core::SensingEngine fleet_engine;
  fleet_engine.UseSharedScratch();
  constexpr std::size_t kLinks = 3;
  for (std::size_t l = 0; l < kLinks; ++l) {
    owned_engine.AddLink(core::Detector(*shared), empty_scores, config);
    fleet_engine.AddLink(shared, empty_scores, config);
  }

  // Interleave the links so the shared scratch is handed between them
  // mid-stream (profile-stack cache crossing link boundaries).
  const std::span<const wifi::CsiPacket> session(f.occupied_session);
  for (std::size_t pos = 0; pos + 10 <= session.size(); pos += 10) {
    for (std::size_t l = 0; l < kLinks; ++l) {
      const auto& a = owned_engine.ProcessBatch(l, session.subspan(pos, 10));
      // Copy: the fleet engine's ProcessBatch reuses the same result slot
      // pattern per link, so compare before the next call.
      const std::vector<core::PresenceDecision> owned(a.decisions);
      const auto& b = fleet_engine.ProcessBatch(l, session.subspan(pos, 10));
      ASSERT_EQ(owned.size(), b.decisions.size());
      for (std::size_t i = 0; i < owned.size(); ++i) {
        EXPECT_EQ(owned[i].score, b.decisions[i].score);
        EXPECT_EQ(owned[i].posterior, b.decisions[i].posterior);
        EXPECT_EQ(owned[i].occupied, b.decisions[i].occupied);
      }
    }
  }
}

// The baseline ingest cache must stay coherent under the recalibration
// ladder: when a profile swap bumps the detector's profile epoch
// mid-stream, stale cached packet scores must not leak into decisions.
// Pinned by a digest recorded against a window-rescoring reference.
TEST(EngineEquivalence, BaselineIngestCacheSurvivesRecalibration) {
  auto& f = Fixture();
  ASSERT_EQ(FixtureDigest(f), kFixtureInputDigest) << "input changed";
  constexpr std::uint64_t kGolden = 0xe6df299370fc7b5full;
  auto detector = f.Calibrated(core::DetectionScheme::kBaseline);
  const auto empty_scores = EmptyScores(f, detector);
  detector.SetThreshold(1.0);

  core::StreamingConfig config;
  config.window_packets = 25;
  config.hop_packets = 5;
  config.calibration.enabled = true;
  config.calibration.quiet_posterior_max = 0.2;
  config.calibration.drift_ewma_alpha = 1.0;
  config.calibration.drift_confirm_windows = 2;
  config.calibration.recalibration_quiet_windows = 3;
  config.calibration.recalibration_timeout_windows = 10;

  core::SensingEngine engine;
  engine.AddLink(std::move(detector), empty_scores, config);

  // Empty-room stream: quiet windows feed the ladder, which recalibrates
  // (ApplyProfile bumps the epoch) while the cache holds pre-swap scores.
  std::vector<core::PresenceDecision> decisions;
  for (const auto& packet : f.empty_session) {
    if (auto d = engine.ProcessPacket(0, packet)) decisions.push_back(*d);
  }
  ASSERT_FALSE(decisions.empty());
  EXPECT_GT(engine.Calibrator(0).profile_swaps(), 0u);
  const std::uint64_t digest = golden::DecisionDigest(
      decisions, engine.Health(0), engine.Calibrator(0));
  EXPECT_EQ(digest, kGolden) << std::hex << "digest=0x" << digest;
}

// Subcarrier and variance links fold their window statistic from
// ingest-cached power rows through the selection kernel and take the mu
// medians in batches at decision time. Pinned bit for bit across even and
// odd windows, windows past the network limit (the dsp fallback), short
// and full hops, guard plus adaptive calibration, and a dead-chain
// (degraded) stretch. With the calibrator off, full-mask windows score
// from the cached rows alone (no window copy).
TEST(GoldenDecisions, PowerRowSchemesUnderFaults) {
  auto& f = Fixture();
  auto sim_config = ex::DefaultSimConfig();
  sim_config.faults.enabled = true;
  sim_config.faults.seed = 29;
  sim_config.faults.drop_prob = 0.03;
  sim_config.faults.corrupt_prob = 0.01;
  sim_config.faults.agc_jump_prob = 0.005;
  sim_config.faults.dead_antenna = 1;
  sim_config.faults.dead_from_packet = 220;
  auto faulty = ex::MakeSimulator(f.link, sim_config);
  Rng rng(909);
  auto session = faulty.CaptureSession(160, std::nullopt, rng);
  propagation::HumanBody body;
  body.position = {3.0, 4.2};
  const auto occupied = faulty.CaptureSession(160, body, rng);
  session.insert(session.end(), occupied.begin(), occupied.end());
  ASSERT_EQ(FixtureDigest(f), kFixtureInputDigest) << "input changed";
  ASSERT_EQ(golden::PacketDigest(session), 0x0fe63a36261fdf52ull)
      << "input changed";

  constexpr auto kSubcarrier = core::DetectionScheme::kSubcarrierWeighting;
  constexpr auto kVariance = core::DetectionScheme::kVarianceMobile;
  struct Golden {
    core::DetectionScheme scheme;
    std::size_t window;
    std::size_t hop;
    bool adaptive;
    std::uint64_t digest;
  };
  const Golden kGolden[] = {
      {kSubcarrier, 24, 1, true, 0xc20c5a295fbe9849ull},
      {kSubcarrier, 24, 1, false, 0xee3114d8395f8165ull},
      {kSubcarrier, 24, 10, true, 0xde934f0641bf3df8ull},
      {kSubcarrier, 24, 10, false, 0xfefc4ca177fe4572ull},
      {kSubcarrier, 24, 25, true, 0x009813e543f8dec7ull},
      {kSubcarrier, 24, 25, false, 0x4a54bea70d825facull},
      {kSubcarrier, 25, 1, true, 0xa5c855738989a4e6ull},
      {kSubcarrier, 25, 1, false, 0x24046d520b03c66aull},
      {kSubcarrier, 25, 10, true, 0xbb1fb7fc5461b0c5ull},
      {kSubcarrier, 25, 10, false, 0x46abff887225b900ull},
      {kSubcarrier, 25, 25, true, 0x19a436c83c182821ull},
      {kSubcarrier, 25, 25, false, 0xf38fa3bfd58e2a2full},
      {kSubcarrier, 40, 1, true, 0x31882c3e85ff1aa5ull},
      {kSubcarrier, 40, 1, false, 0xa83ca892c42edccfull},
      {kSubcarrier, 40, 10, true, 0x08e61cd467c0a5e5ull},
      {kSubcarrier, 40, 10, false, 0x42701407ca958abdull},
      {kSubcarrier, 40, 25, true, 0x7cab20673bc94d4cull},
      {kSubcarrier, 40, 25, false, 0x68dcd1ef7e177f7full},
      {kVariance, 24, 1, true, 0x86f1b4256e7909e4ull},
      {kVariance, 24, 1, false, 0x2dce177e8bb72e8full},
      {kVariance, 24, 10, true, 0x524b533748b10c45ull},
      {kVariance, 24, 10, false, 0x9fd2d53695648fe8ull},
      {kVariance, 24, 25, true, 0x3aa2c4b4703763f6ull},
      {kVariance, 24, 25, false, 0x06902f2309b88da6ull},
      {kVariance, 25, 1, true, 0xb9cd47c22f44b002ull},
      {kVariance, 25, 1, false, 0x9d0d393e70edbb9cull},
      {kVariance, 25, 10, true, 0x2dcf75b8464f57b0ull},
      {kVariance, 25, 10, false, 0xf216b9e1acb07427ull},
      {kVariance, 25, 25, true, 0xb5c5842dc1f29e33ull},
      {kVariance, 25, 25, false, 0x2858a0c72946f4baull},
      {kVariance, 40, 1, true, 0x56f607c1a4aa1f0eull},
      {kVariance, 40, 1, false, 0xffe8fe5e65ca9107ull},
      {kVariance, 40, 10, true, 0x3cd18d0eeb514f4aull},
      {kVariance, 40, 10, false, 0xff46d66cb6e02375ull},
      {kVariance, 40, 25, true, 0xaa559733020ea731ull},
      {kVariance, 40, 25, false, 0x02238e4808013748ull},
  };
  std::size_t checked = 0;
  for (auto scheme : {kSubcarrier, kVariance}) {
    auto calibrated = f.Calibrated(scheme);
    const auto empty_scores = EmptyScores(f, calibrated);
    calibrated.SetThreshold(1.0);
    for (const std::size_t window : {std::size_t{24}, std::size_t{25},
                                     std::size_t{40}}) {
      for (const std::size_t hop : {std::size_t{1}, std::size_t{10},
                                    std::size_t{25}}) {
        for (const bool adaptive : {true, false}) {
          core::StreamingConfig config;
          config.window_packets = window;
          config.hop_packets = std::min(hop, window);
          config.use_hmm = true;
          config.guard_enabled = true;
          config.calibration.enabled = adaptive;

          core::SensingEngine engine;
          engine.AddLink(calibrated, empty_scores, config);
          const auto decisions = ProcessChopped(engine, session);

          const std::string where =
              std::string(core::ToString(scheme)) +
              " window=" + std::to_string(window) +
              " hop=" + std::to_string(config.hop_packets) +
              " adaptive=" + std::to_string(adaptive);
          bool any_degraded = false;
          for (const auto& d : decisions) any_degraded |= d.degraded;
          EXPECT_TRUE(any_degraded) << where << ": no dead-chain stretch";
          const std::uint64_t digest = golden::DecisionDigest(
              decisions, engine.Health(0), engine.Calibrator(0));
          ASSERT_LT(checked, std::size(kGolden)) << where;
          const Golden& row = kGolden[checked++];
          ASSERT_TRUE(row.scheme == scheme && row.window == window &&
                      row.hop == hop && row.adaptive == adaptive)
              << where << ": golden table out of loop order";
          EXPECT_EQ(digest, row.digest)
              << where << std::hex << " digest=0x" << digest;
        }
      }
    }
  }
  EXPECT_EQ(checked, std::size(kGolden));
}

// Live reference for the ingest caches (mu ring, power rows, slabs and
// baseline distances): every engine decision must score exactly what
// Detector::Score gives on the last window_packets raw packets pushed, with
// the guard's live-antenna mask and the fallback statistic on degraded
// windows. The stream drops packets and loses a chain mid-way but carries
// nothing the guard quarantines or resyncs on, so the ring really holds
// the last window_packets pushed packets.
TEST(EngineEquivalence, DecisionsScoreTheLastRawWindow) {
  auto& f = Fixture();
  auto sim_config = ex::DefaultSimConfig();
  sim_config.faults.enabled = true;
  sim_config.faults.seed = 53;
  sim_config.faults.drop_prob = 0.05;
  sim_config.faults.dead_antenna = 2;
  sim_config.faults.dead_from_packet = 150;
  auto faulty = ex::MakeSimulator(f.link, sim_config);
  Rng rng(717);
  auto session = faulty.CaptureSession(120, std::nullopt, rng);
  propagation::HumanBody body;
  body.position = {3.0, 4.2};
  const auto occupied = faulty.CaptureSession(180, body, rng);
  session.insert(session.end(), occupied.begin(), occupied.end());
  const std::span<const wifi::CsiPacket> stream(session);

  for (auto scheme : kAllSchemes) {
    auto detector = f.Calibrated(scheme);
    detector.SetThreshold(1.0);
    core::DetectorScratch reference_scratch;
    for (const std::size_t window : {std::size_t{24}, std::size_t{25},
                                     std::size_t{40}}) {
      for (const std::size_t hop : {std::size_t{1}, std::size_t{10},
                                    std::size_t{25}}) {
        core::StreamingConfig config;
        config.window_packets = window;
        config.hop_packets = std::min(hop, window);
        config.use_hmm = false;
        config.guard_enabled = true;
        core::SensingEngine engine;
        engine.AddLink(detector, {}, config);

        const std::string where =
            std::string(core::ToString(scheme)) +
            " window=" + std::to_string(window) +
            " hop=" + std::to_string(config.hop_packets);
        std::size_t clean = 0, degraded = 0;
        for (std::size_t i = 0; i < stream.size(); ++i) {
          const auto decision = engine.ProcessPacket(0, stream[i]);
          if (!decision.has_value()) continue;
          core::Detector::Window last;
          last.packets = stream.subspan(i + 1 - window, window);
          if (decision->degraded) {
            last.live_mask = ~engine.Health(0).dead_antenna_mask;
            last.fallback = true;
            ++degraded;
          } else {
            ++clean;
          }
          ASSERT_EQ(decision->score, detector.Score(last, reference_scratch))
              << where << " packet " << i;
        }
        EXPECT_GT(clean, 0u) << where;
        EXPECT_GT(degraded, 0u) << where << ": no dead-chain stretch";
        const auto health = engine.Health(0);
        EXPECT_GT(health.missing, 0u) << where << ": no dropped packets";
        EXPECT_EQ(health.quarantined, 0u) << where;
        if constexpr (obs::kEnabled) {
          EXPECT_EQ(engine.Metrics(0).Get(obs::Counter::kRingResyncs), 0u)
              << where;
        }
      }
    }
  }
}

// The power-row fold must reproduce, bit for bit, the per-cell dsp
// statistics the subcarrier and variance schemes are defined by —
// dsp::Median / MedianAbsDeviation (robust aggregate) and dsp::Mean /
// Variance (plain) over each (antenna, subcarrier) window column — for
// even and odd windows and past the selection network's 32 inputs. The
// reference below recomputes the profile and the score from the public
// pieces exactly as the per-cell implementation did.
TEST(EngineEquivalence, PowerRowFoldMatchesPerCellDspReference) {
  auto& f = Fixture();
  const auto& band = f.sim.band();
  const auto calibration = core::SanitizePhase(f.calibration, band);
  for (const bool robust : {true, false}) {
    for (auto scheme : {core::DetectionScheme::kSubcarrierWeighting,
                        core::DetectionScheme::kVarianceMobile}) {
      core::DetectorConfig config;
      config.scheme = scheme;
      config.robust_window_aggregate = robust;
      const auto detector = core::Detector::Calibrate(
          f.calibration, band, f.sim.array(), config);
      const auto& profile = detector.profile_power();
      const std::size_t antennas = detector.num_antennas();
      const std::size_t subcarriers = detector.num_subcarriers();
      double power_sum = 0.0;
      std::vector<std::vector<double>> profile_variance(
          antennas, std::vector<double>(subcarriers, 0.0));
      for (std::size_t m = 0; m < antennas; ++m) {
        for (std::size_t k = 0; k < subcarriers; ++k) {
          power_sum += profile[m][k];
        }
      }
      for (const auto& packet : calibration) {
        for (std::size_t m = 0; m < antennas; ++m) {
          for (std::size_t k = 0; k < subcarriers; ++k) {
            const double diff = packet.SubcarrierPower(m, k) - profile[m][k];
            profile_variance[m][k] += diff * diff;
          }
        }
      }
      const double inv_n = 1.0 / static_cast<double>(calibration.size());
      const double scale =
          power_sum / static_cast<double>(antennas * subcarriers);
      const double uniform = 1.0 / static_cast<double>(subcarriers);

      for (const std::size_t window : {std::size_t{24}, std::size_t{25},
                                       std::size_t{40}}) {
        for (const std::size_t start : {std::size_t{0}, std::size_t{90}}) {
          const std::vector<wifi::CsiPacket> raw(
              f.occupied_session.begin() + static_cast<std::ptrdiff_t>(start),
              f.occupied_session.begin() +
                  static_cast<std::ptrdiff_t>(start + window));
          const auto sanitized = core::SanitizePhase(raw, band);
          const auto weights = core::ComputeSubcarrierWeights(
              core::MeasureMultipathFactors(sanitized, band));
          double reference = 0.0;
          for (std::size_t m = 0; m < antennas; ++m) {
            double sum_sq = 0.0;
            for (std::size_t k = 0; k < subcarriers; ++k) {
              std::vector<double> powers;
              for (const auto& packet : sanitized) {
                powers.push_back(packet.SubcarrierPower(m, k));
              }
              double statistic;
              if (scheme == core::DetectionScheme::kSubcarrierWeighting) {
                const double level =
                    robust ? dsp::Median(powers) : dsp::Mean(powers);
                statistic = (level - profile[m][k]) / scale;
              } else {
                double spread = dsp::Variance(powers);
                if (robust) {
                  const double sigma =
                      1.4826 * dsp::MedianAbsDeviation(powers);
                  spread = sigma * sigma;
                }
                const double excess = std::max(
                    0.0, spread - profile_variance[m][k] * inv_n);
                statistic = std::sqrt(excess) / scale;
              }
              const double weighted =
                  (weights.weights[k] / uniform) * statistic;
              sum_sq += weighted * weighted;
            }
            reference += std::sqrt(sum_sq);
          }
          reference /= static_cast<double>(antennas);
          EXPECT_EQ(detector.Score(raw), reference)
              << core::ToString(scheme) << " robust=" << robust
              << " window=" << window << " start=" << start;
        }
      }
    }
  }
}

// Serving-tier eviction: RemoveLink frees the slot for the next AddLink,
// leaves every other link untouched, and the recycled slot behaves like a
// brand-new link.
TEST(SensingEngine, RemoveLinkRecyclesSlot) {
  auto& f = Fixture();
  auto d0 = f.Calibrated(core::DetectionScheme::kSubcarrierWeighting);
  const auto empty_scores = EmptyScores(f, d0);
  d0.SetThreshold(1.0);
  auto d1 = d0;
  auto d2 = d0;

  core::SensingEngine engine;
  const std::size_t a = engine.AddLink(std::move(d0), empty_scores, {});
  const std::size_t b = engine.AddLink(std::move(d1), empty_scores, {});
  EXPECT_EQ(engine.NumActiveLinks(), 2u);

  const std::span<const wifi::CsiPacket> session(f.occupied_session);
  (void)engine.ProcessBatch(a, session.subspan(0, 30));
  const std::vector<core::PresenceDecision> b_before(
      engine.ProcessBatch(b, session.subspan(0, 60)).decisions);
  ASSERT_FALSE(b_before.empty());

  engine.RemoveLink(a);
  EXPECT_FALSE(engine.LinkActive(a));
  EXPECT_TRUE(engine.LinkActive(b));
  EXPECT_EQ(engine.NumActiveLinks(), 1u);

  // The freed slot is reused before any new one is appended.
  const std::size_t c = engine.AddLink(std::move(d2), empty_scores, {});
  EXPECT_EQ(c, a);
  EXPECT_EQ(engine.NumLinks(), 2u);
  EXPECT_EQ(engine.NumActiveLinks(), 2u);

  // The recycled slot starts from a clean ring: feeding it the same stream
  // reproduces a fresh link's decisions, and link b is unaffected.
  const auto& c_result = engine.ProcessBatch(c, session.subspan(0, 60));
  const std::vector<core::PresenceDecision> c_decisions(c_result.decisions);
  const auto& b_again = engine.ProcessBatch(b, session.subspan(60, 60));
  ASSERT_FALSE(b_again.decisions.empty());
  ASSERT_EQ(c_decisions.size(), b_before.size());
  for (std::size_t i = 0; i < c_decisions.size(); ++i) {
    EXPECT_EQ(c_decisions[i].score, b_before[i].score);
  }
}

// A link re-admitted into a parked slot decides bit-identically to the same
// registration on a fresh engine. The slot cycles through registrations
// that keep the buffer shape (re-bound: scheme and window unchanged, but
// owned <-> shared detector, hop, HMM, guard and adaptive calibration
// flipped) and ones that change it (rebuilt: scheme or window differs),
// on a faulted, drifting stream with a dead chain, next to a long-lived
// neighbour link; with per-link and with engine-shared scratch.
TEST(SensingEngine, ReadmittedParkedSlotMatchesFreshEngine) {
  auto& f = Fixture();
  auto sim_config = ex::DefaultSimConfig();
  sim_config.faults.enabled = true;
  sim_config.faults.seed = 41;
  sim_config.faults.drop_prob = 0.02;
  sim_config.faults.corrupt_prob = 0.01;
  sim_config.faults.agc_jump_prob = 0.005;
  sim_config.faults.drift_ramp_db_per_1k = 15.0;
  sim_config.faults.dead_antenna = 2;
  sim_config.faults.dead_from_packet = 200;
  auto faulty = ex::MakeSimulator(f.link, sim_config);
  Rng rng(515);
  auto session = faulty.CaptureSession(150, std::nullopt, rng);
  propagation::HumanBody body;
  body.position = {3.0, 4.2};
  const auto occupied = faulty.CaptureSession(150, body, rng);
  session.insert(session.end(), occupied.begin(), occupied.end());
  const std::span<const wifi::CsiPacket> stream(session);

  struct Profile {
    core::Detector detector;
    std::shared_ptr<const core::Detector> shared;
    std::vector<double> empty_scores;
  };
  std::vector<Profile> profiles;
  for (auto scheme : kAllSchemes) {
    auto detector = f.Calibrated(scheme);
    auto empty_scores = EmptyScores(f, detector);
    detector.SetThreshold(1.0);
    auto shared = std::make_shared<const core::Detector>(detector);
    profiles.push_back({std::move(detector), std::move(shared),
                        std::move(empty_scores)});
  }

  struct Spec {
    std::size_t profile;  // kAllSchemes index
    std::size_t window;
    std::size_t hop;
    bool shared;
    bool hmm;
    bool guard;
    bool adaptive;
  };
  const Spec specs[] = {
      {2, 25, 5, false, true, true, true},
      {2, 25, 1, true, false, false, false},   // re-bound
      {2, 25, 10, false, false, true, true},   // re-bound
      {1, 25, 10, true, true, true, false},    // scheme differs: rebuilt
      {1, 25, 25, false, true, true, true},    // re-bound
      {1, 30, 10, false, false, true, false},  // window differs: rebuilt
      {3, 30, 3, false, true, true, true},
      {3, 30, 7, true, true, false, false},    // re-bound
      {0, 30, 5, false, true, true, true},
      {0, 30, 10, true, false, true, false},   // re-bound
      {2, 25, 5, false, true, true, true},
  };
  const auto add = [&](core::SensingEngine& engine, const Spec& spec) {
    const Profile& p = profiles[spec.profile];
    core::StreamingConfig config;
    config.window_packets = spec.window;
    config.hop_packets = spec.hop;
    config.use_hmm = spec.hmm;
    config.guard_enabled = spec.guard;
    config.calibration.enabled = spec.adaptive;
    return spec.shared ? engine.AddLink(p.shared, p.empty_scores, config)
                       : engine.AddLink(core::Detector(p.detector),
                                        p.empty_scores, config);
  };
  const auto run = [&](core::SensingEngine& engine, std::size_t link) {
    std::vector<core::PresenceDecision> out;
    const std::size_t cuts[] = {9, 31, 1, 25, 4};
    for (std::size_t pos = 0, cut = 0; pos < stream.size(); ++cut) {
      const std::size_t n = std::min(cuts[cut % 5], stream.size() - pos);
      const auto& result = engine.ProcessBatch(link, stream.subspan(pos, n));
      out.insert(out.end(), result.decisions.begin(), result.decisions.end());
      pos += n;
    }
    return out;
  };

  bool any_degraded = false;
  for (const bool shared_scratch : {false, true}) {
    core::SensingEngine engine;
    if (shared_scratch) engine.UseSharedScratch();
    const std::size_t neighbour = add(engine, specs[0]);
    std::size_t cycling = add(engine, specs[0]);
    (void)run(engine, cycling);
    for (std::size_t i = 0; i < std::size(specs); ++i) {
      const std::size_t freed = cycling;
      engine.RemoveLink(freed);
      (void)engine.ProcessBatch(neighbour, stream.subspan(0, 13));
      cycling = add(engine, specs[i]);
      ASSERT_EQ(cycling, freed);
      const auto got = run(engine, cycling);

      core::SensingEngine fresh;
      if (shared_scratch) fresh.UseSharedScratch();
      const std::size_t ref = add(fresh, specs[i]);
      const auto want = run(fresh, ref);

      const std::string where = "spec " + std::to_string(i) +
                                " shared_scratch=" +
                                std::to_string(shared_scratch);
      ASSERT_EQ(got.size(), want.size()) << where;
      ASSERT_FALSE(want.empty()) << where;
      for (std::size_t d = 0; d < want.size(); ++d) {
        EXPECT_EQ(got[d].timestamp_s, want[d].timestamp_s) << where;
        EXPECT_EQ(got[d].score, want[d].score) << where << " #" << d;
        EXPECT_EQ(got[d].posterior, want[d].posterior) << where;
        EXPECT_EQ(got[d].occupied, want[d].occupied) << where;
        EXPECT_EQ(got[d].degraded, want[d].degraded) << where;
        any_degraded |= want[d].degraded;
      }
      const auto h_got = engine.Health(cycling);
      const auto h_want = fresh.Health(ref);
      EXPECT_EQ(h_got.received, h_want.received) << where;
      EXPECT_EQ(h_got.quarantined, h_want.quarantined) << where;
      EXPECT_EQ(h_got.dead_antenna_mask, h_want.dead_antenna_mask) << where;
      EXPECT_EQ(h_got.calibration_state, h_want.calibration_state) << where;
      EXPECT_EQ(h_got.quiet_windows, h_want.quiet_windows) << where;
      EXPECT_EQ(h_got.profile_swaps, h_want.profile_swaps) << where;
      EXPECT_EQ(h_got.empty_score_ewma, h_want.empty_score_ewma) << where;
      // Counters match except how the profile-stack lookups split between
      // hits and rebuilds: the slot's scratch may still hold the profile's
      // stack from the previous link, which changes no score.
      auto c_got = engine.Metrics(cycling).counters();
      auto c_want = fresh.Metrics(ref).counters();
      for (auto* c : {&c_got, &c_want}) {
        auto& hits = (*c)[static_cast<std::size_t>(
            obs::Counter::kProfileStackHits)];
        auto& rebuilds = (*c)[static_cast<std::size_t>(
            obs::Counter::kProfileStackRebuilds)];
        hits += rebuilds;
        rebuilds = 0;
      }
      EXPECT_EQ(c_got, c_want) << where;
    }
    EXPECT_EQ(engine.NumLinks(), 2u);
  }
  EXPECT_TRUE(any_degraded) << "no dead-chain stretch";
}

// Removing a link keeps its counters and stage histograms in
// AggregateMetrics; a link re-admitted into the slot adds its own on top,
// and ResetAll clears both.
TEST(SensingEngine, AggregateMetricsSurviveEviction) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "metrics compiled out";
  auto& f = Fixture();
  auto detector = f.Calibrated(core::DetectionScheme::kSubcarrierWeighting);
  const auto empty_scores = EmptyScores(f, detector);
  detector.SetThreshold(1.0);
  core::StreamingConfig config;
  config.hop_packets = 5;
  config.guard_enabled = true;

  core::SensingEngine engine;
  const std::span<const wifi::CsiPacket> session(f.occupied_session);
  for (std::size_t l = 0; l < 3; ++l) {
    const std::size_t link = engine.AddLink(detector, empty_scores, config);
    (void)engine.ProcessBatch(link, session.subspan(10 * l, 80));
  }
  const obs::Registry before = engine.AggregateMetrics();
  ASSERT_GT(before.Get(obs::Counter::kDecisions), 0u);

  engine.RemoveLink(1);
  const obs::Registry after = engine.AggregateMetrics();
  EXPECT_EQ(after.counters(), before.counters());
  for (std::size_t s = 0; s < obs::kNumStages; ++s) {
    const auto stage = static_cast<obs::Stage>(s);
    EXPECT_EQ(after.StageLatency(stage).count,
              before.StageLatency(stage).count);
  }

  const std::size_t again = engine.AddLink(detector, empty_scores, config);
  ASSERT_EQ(again, 1u);
  (void)engine.ProcessBatch(again, session.subspan(0, 60));
  const obs::Registry total = engine.AggregateMetrics();
  for (std::size_t c = 0; c < obs::kNumCounters; ++c) {
    const auto counter = static_cast<obs::Counter>(c);
    EXPECT_EQ(total.Get(counter),
              before.Get(counter) + engine.Metrics(again).Get(counter))
        << obs::ToString(counter);
  }

  engine.ResetAll();
  EXPECT_TRUE(engine.AggregateMetrics().Empty());
}

}  // namespace
