// Golden decision digests: FNV-1a/64 over the exact bit patterns of a
// link's decision log and its final health and calibrator state, plus a
// separate digest of the input packets. A pinned decision digest fixes
// every score, posterior and verdict bit for bit, so a refactor of the
// ingest or scoring path cannot move a decision without failing; the input
// digest tells a simulator change (toolchain, libm) apart from a decision
// change.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

#include "core/calibration/calibration.h"
#include "core/streaming.h"
#include "nic/frame_guard.h"
#include "wifi/csi.h"

namespace mulink::golden {

class Fnv64 {
 public:
  void U64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= 1099511628211ull;
    }
  }
  void F64(double v) { U64(std::bit_cast<std::uint64_t>(v)); }
  void Bool(bool v) { U64(v ? 1u : 0u); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ull;
};

inline std::uint64_t PacketDigest(std::span<const wifi::CsiPacket> packets) {
  Fnv64 h;
  for (const auto& p : packets) {
    h.F64(p.timestamp_s);
    h.F64(p.rssi_db);
    h.U64(p.sequence);
    h.U64(p.NumAntennas());
    h.U64(p.NumSubcarriers());
    const Complex* cell = p.csi.raw();
    for (std::size_t c = 0; c < p.NumAntennas() * p.NumSubcarriers(); ++c) {
      h.F64(cell[c].real());
      h.F64(cell[c].imag());
    }
  }
  return h.value();
}

inline std::uint64_t DecisionDigest(
    std::span<const core::PresenceDecision> decisions,
    const nic::LinkHealth& health, const core::LinkCalibrator& calibrator) {
  Fnv64 h;
  h.U64(decisions.size());
  for (const auto& d : decisions) {
    h.F64(d.timestamp_s);
    h.F64(d.score);
    h.F64(d.posterior);
    h.Bool(d.occupied);
    h.Bool(d.degraded);
  }
  h.U64(health.received);
  h.U64(health.accepted);
  h.U64(health.repaired);
  h.U64(health.quarantined);
  h.U64(health.missing);
  for (const std::uint64_t count : health.fault_counts) h.U64(count);
  h.U64(health.dead_antenna_mask);
  h.Bool(health.degraded);
  h.U64(health.degraded_decisions);
  h.U64(static_cast<std::uint64_t>(health.calibration_state));
  h.U64(health.quiet_windows);
  h.U64(health.profile_swaps);
  h.F64(health.adaptive_threshold);
  h.U64(static_cast<std::uint64_t>(calibrator.state()));
  h.U64(calibrator.quiet_windows());
  h.U64(calibrator.profile_swaps());
  h.U64(calibrator.agc_rebaselines());
  h.F64(calibrator.adaptive_threshold());
  h.F64(calibrator.quiet_score_ewma());
  h.F64(calibrator.quiet_log_mean());
  h.F64(calibrator.quiet_log_sigma());
  return h.value();
}

}  // namespace mulink::golden
