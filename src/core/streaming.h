// Per-link streaming configuration and the decision record of
// packet-at-a-time presence detection: windowed scoring with optional HMM
// temporal smoothing, guarded ingest and adaptive calibration, as run by
// SensingEngine (core/engine.h) for live CSI feeds (50 packets/s in the
// paper's testbed).
#pragma once

#include <cstddef>

#include "core/calibration/calibration.h"
#include "core/detector.h"
#include "core/hmm.h"
#include "nic/frame_guard.h"

namespace mulink::core {

struct StreamingConfig {
  // Window length scored per decision and the hop between decisions
  // (hop == window -> non-overlapping decisions, the paper's cadence).
  std::size_t window_packets = 25;
  std::size_t hop_packets = 25;

  // Smooth scores with the two-state presence HMM (Sec. V-B1's suggestion);
  // when off, decisions fall back to the detector's raw threshold.
  bool use_hmm = true;
  HmmConfig hmm;
  // Posterior above which the room is declared occupied (HMM mode).
  double decision_probability = 0.5;

  // Frame validation (nic::FrameGuard) in front of the ring. Quarantined
  // frames never reach a window; repairable frames are ingested with their
  // faults counted; a sequence gap wider than the guard's resync limit
  // flushes the ring (the buffered packets and the new one no longer form a
  // contiguous window). Off by default — guarded ingest of a clean stream
  // is bit-identical to unguarded ingest.
  //
  // When the guard confirms a dead RX chain, the link keeps deciding on the
  // surviving antennas with the detector's fallback statistic
  // (Detector::Window's live_mask and fallback; the combined scheme falls
  // back to subcarrier-only weighting, since MUSIC needs the full array);
  // with every chain dead, decisions pause until one revives. Degraded
  // decisions bypass the HMM — its emission model was fitted to the
  // primary statistic — and the filter resumes, state intact, on recovery.
  bool guard_enabled = false;
  nic::FrameGuardConfig guard;

  // Online Bayesian calibration (core/calibration): per-link posteriors
  // over the quiet profile and threshold plus the recalibration ladder
  // Healthy -> DriftSuspected -> Recalibrating -> Degraded -> Frozen. The
  // ladder is the link's only drift sensor: it alone fills
  // LinkHealth::profile_drift and empty_score_ewma (it can clear the flag
  // by recalibrating in place), so both stay false / 0 when it is off. Off
  // by default.
  CalibrationConfig calibration;
};

struct PresenceDecision {
  double timestamp_s = 0.0;   // timestamp of the newest packet in the window
  double score = 0.0;         // raw detector statistic
  double posterior = 0.0;     // P(occupied); equals score>threshold when !use_hmm
  bool occupied = false;
  // Decided on the degraded (dead-chain fallback) statistic against the
  // fallback threshold; posterior is the hard 0/1 of that comparison.
  bool degraded = false;
};

}  // namespace mulink::core
