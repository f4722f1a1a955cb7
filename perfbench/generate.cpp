#include "generate.h"

#include <algorithm>
#include <optional>

#include "common/rng.h"
#include "experiments/scenario.h"
#include "experiments/workload.h"
#include "propagation/human.h"

namespace perfbench {

namespace ex = mulink::experiments;
using mulink::Rng;

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

FleetInputs GenerateFleet(std::uint64_t seed, std::size_t calibration_packets,
                          std::size_t pool_packets) {
  const auto lc = ex::MakeClassroomLink();
  auto sim = ex::MakeSimulator(lc);
  FleetInputs inputs(sim.band(), sim.array());
  inputs.seed = seed;
  Rng rng(SplitMix64(seed), 11);
  inputs.calibration = sim.CaptureSession(calibration_packets, std::nullopt, rng);
  inputs.pool = sim.CaptureSession(pool_packets, std::nullopt, rng);
  return inputs;
}

int ReplayLink::Truth(double timestamp_s, double window_s) const {
  int truth = -1;
  for (const auto& seg : segments) {
    if (timestamp_s < seg.start_s) break;
    // Decisions whose window may still hold the previous segment's packets
    // (drops stretch a window past its nominal span, hence the factor) are
    // not scored.
    truth = timestamp_s < seg.start_s + 2.0 * window_s ? -1 : (seg.occupied ? 1 : 0);
  }
  return truth;
}

std::vector<ReplayLink> GenerateReplay(std::uint64_t seed,
                                       std::size_t calibration_packets,
                                       std::size_t session_packets) {
  const auto cases = ex::MakePaperCases();
  Rng master(SplitMix64(seed), 23);
  const auto dead_link = static_cast<std::size_t>(
      master.UniformInt(0, static_cast<int>(cases.size()) - 1));
  const std::size_t segment = session_packets / 9;

  std::vector<ReplayLink> links;
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const auto& lc = cases[c];
    Rng rng = master.Fork();

    // Calibration comes from a clean capture of the empty room.
    auto clean = ex::MakeSimulator(lc);
    ReplayLink link(clean.band(), clean.array());
    link.calibration = clean.CaptureSession(calibration_packets, std::nullopt, rng);

    auto config = ex::DefaultSimConfig();
    auto& faults = config.faults;
    faults.enabled = true;
    faults.seed = SplitMix64(seed ^ (0x51ed2700ull + c));
    faults.drop_prob = 0.02;
    faults.duplicate_prob = 0.01;
    faults.corrupt_prob = 0.01;
    faults.agc_jump_prob = 0.002;
    if (c == dead_link) {
      // The chain dies halfway through the last segment. The injector
      // counts reported packets, which excludes stream-level drops.
      faults.dead_antenna = master.UniformInt(0, 2);
      faults.dead_from_packet = 8 * segment + segment / 2;
    }
    auto sim = ex::MakeSimulator(lc, config);

    const auto spots = ex::Grid3x3(lc);
    const auto append = [&](std::vector<wifi::CsiPacket> part, bool occupied) {
      if (part.empty()) return;
      link.segments.push_back({part.front().timestamp_s, occupied});
      link.session.insert(link.session.end(), part.begin(), part.end());
    };
    const auto stand = [&] {
      mulink::propagation::HumanBody body;
      body.position = spots[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<int>(spots.size()) - 1))].position;
      return sim.CaptureSession(segment, body, rng);
    };
    // Back and forth across the link at a seeded crossing point and speed.
    const auto walk = [&] {
      const auto trace = ex::CrossLinkWalk(lc, rng.Uniform(0.3, 0.7), 1.8);
      const double speed = rng.Uniform(0.6, 1.2);
      const auto leg = static_cast<std::size_t>(
          mulink::geometry::Distance(trace.from, trace.to) / speed * 50.0) + 1;
      std::vector<wifi::CsiPacket> out;
      mulink::propagation::HumanBody body;
      for (bool forward = true; out.size() < segment; forward = !forward) {
        const std::size_t count = std::min(leg, segment - out.size());
        const auto part =
            forward ? sim.CaptureWalk(count, body, trace.from, trace.to, speed, rng)
                    : sim.CaptureWalk(count, body, trace.to, trace.from, speed, rng);
        out.insert(out.end(), part.begin(), part.end());
      }
      return out;
    };
    for (int round = 0; round < 3; ++round) {
      append(sim.CaptureSession(segment, std::nullopt, rng), false);
      append(stand(), true);
      append(walk(), true);
    }
    links.push_back(std::move(link));
  }
  return links;
}

std::uint64_t InputDigest(const std::vector<wifi::CsiPacket>& packets,
                          std::uint64_t digest) {
  const auto mix = [&digest](const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      digest ^= bytes[i];
      digest *= 0x100000001b3ull;
    }
  };
  for (const auto& p : packets) {
    mix(p.csi.raw(), p.csi.rows() * p.csi.cols() * sizeof(*p.csi.raw()));
    mix(&p.timestamp_s, sizeof p.timestamp_s);
    mix(&p.rssi_db, sizeof p.rssi_db);
    mix(&p.sequence, sizeof p.sequence);
  }
  return digest;
}

}  // namespace perfbench
