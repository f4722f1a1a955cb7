// Seeded input generation for the benchmark workloads. Everything here runs
// the channel simulator (ray tracing, about 140 us per packet), which is the
// generator's cost: it is never timed and never part of set-up time. The
// same seed gives byte-identical inputs (see InputDigest).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "wifi/array.h"
#include "wifi/band.h"
#include "wifi/csi.h"

namespace perfbench {

namespace wifi = mulink::wifi;

std::uint64_t SplitMix64(std::uint64_t x);

// Inputs of the two fleet workloads: one channel-config group (the paper's
// classroom link) whose empty-room frames every fleet link replays, each
// link from its own seeded offset into the pool.
struct FleetInputs {
  FleetInputs(wifi::BandPlan band_plan, wifi::UniformLinearArray rx_array)
      : band(std::move(band_plan)), array(std::move(rx_array)) {}

  wifi::BandPlan band;
  wifi::UniformLinearArray array;
  std::vector<wifi::CsiPacket> calibration;  // empty room, for Calibrate
  std::vector<wifi::CsiPacket> pool;         // empty-room frames
  std::uint64_t seed = 0;

  // Frame number `t` of link `link`.
  const wifi::CsiPacket& Frame(std::uint64_t link, std::uint64_t t) const {
    const std::uint64_t offset = SplitMix64(seed ^ (link * 0x9e3779b97f4a7c15ull));
    return pool[(offset + t) % pool.size()];
  }
};

FleetInputs GenerateFleet(std::uint64_t seed, std::size_t calibration_packets,
                          std::size_t pool_packets);

// One link of the session-replay workload: a clean empty-room calibration
// capture and a monitoring session of nine equal segments — three rounds of
// vacant, a person standing at a seeded spot, a person walking back and
// forth across the link on a seeded line — captured through a seeded NIC
// fault mix.
struct ReplayLink {
  ReplayLink(wifi::BandPlan band_plan, wifi::UniformLinearArray rx_array)
      : band(std::move(band_plan)), array(std::move(rx_array)) {}

  struct Segment {
    double start_s = 0.0;  // timestamp of the segment's first packet
    bool occupied = false;
  };

  wifi::BandPlan band;
  wifi::UniformLinearArray array;
  std::vector<wifi::CsiPacket> calibration;
  std::vector<wifi::CsiPacket> session;
  std::vector<Segment> segments;  // in session order

  // Ground truth of a decision whose newest packet has this timestamp:
  // 1 occupied, 0 vacant, -1 the window may straddle a segment change (not
  // scored).
  int Truth(double timestamp_s, double window_s) const;
};

// The five Fig. 6 office cases. Exactly one link (seeded) loses an RX chain
// in its final segment; every link sees drops, duplicates, corrupted
// subcarriers and AGC jumps.
std::vector<ReplayLink> GenerateReplay(std::uint64_t seed,
                                       std::size_t calibration_packets,
                                       std::size_t session_packets);

// FNV-1a over every byte a packet carries (CSI, timestamp, RSSI, sequence).
std::uint64_t InputDigest(const std::vector<wifi::CsiPacket>& packets,
                          std::uint64_t digest = 0xcbf29ce484222325ull);

}  // namespace perfbench
