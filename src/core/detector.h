// Device-free human detection pipeline (paper Sec. IV-C).
//
// Two stages, as in the paper:
//  * Calibration — from an empty-room CSI session: phase-sanitize, store the
//    static profile s(0) (per-antenna per-subcarrier mean power), the static
//    angular pseudospectrum and the Eq. 17 path weights, plus a subsample of
//    sanitized calibration packets so monitoring-stage subcarrier weights can
//    be applied consistently to both sides before the distance is taken.
//  * Monitoring — a window of M packets is scored against the profile; the
//    score exceeding the threshold declares human presence.
//
// Four schemes are provided — the paper's three plus its mobile-target
// statistic:
//  * kBaseline                    — per-packet Euclidean distance of CSI
//                                   amplitudes (the naive prior-work recipe).
//  * kSubcarrierWeighting         — Eq. 15-weighted RSS change distance.
//  * kSubcarrierAndPathWeighting  — distance between subcarrier-weighted,
//                                   path-weighted angular spectra.
//  * kVarianceMobile              — subcarrier-weighted excess temporal
//                                   variance (Sec. III's statistic for
//                                   moving targets [18]).
//
// Scores are normalized by the static profile's mean power so one global
// threshold works across links — the role AGC scaling plays on real NICs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/annotations.h"
#include "core/multipath_factor.h"
#include "core/music.h"
#include "core/path_weighting.h"
#include "core/sanitize.h"
#include "core/subcarrier_weighting.h"
#include "obs/metrics.h"
#include "wifi/array.h"
#include "wifi/band.h"
#include "wifi/csi.h"

namespace mulink::core {

enum class DetectionScheme {
  kBaseline,
  kSubcarrierWeighting,
  kSubcarrierAndPathWeighting,
  // Variance statistic for MOBILE targets (Sec. III: "the mean of the RSS
  // difference is used to detect stationary targets, while the corresponding
  // variance is adopted for mobile targets" [18]). Subcarrier-weighted
  // temporal variance of per-subcarrier power over the window.
  kVarianceMobile,
};

const char* ToString(DetectionScheme scheme);

struct DetectorConfig {
  DetectionScheme scheme = DetectionScheme::kSubcarrierAndPathWeighting;
  MusicConfig music;
  PathWeightingConfig path_weighting;

  // Eq. 15 factor selection (ablation hook; the paper's scheme is the
  // product of mean multipath factor and stability ratio).
  WeightingMode weighting_mode = WeightingMode::kMeanMuTimesStability;

  // Monitoring window length M in packets (paper: ~0.5 s at 50 pkt/s).
  std::size_t window_packets = 25;

  // How many sanitized calibration packets to retain for re-weighted
  // pseudospectrum computation (evenly subsampled from the session).
  std::size_t retained_calibration_packets = 128;

  // Aggregate the window's per-subcarrier power with the median instead of
  // the mean. The paper uses the mean of the RSS difference for stationary
  // targets; the median is the robust drop-in that survives co-channel
  // interference bursts shorter than half the window (see the
  // ablate_weighting bench for the comparison).
  bool robust_window_aggregate = true;

  // Subtract the smallest covariance eigenvalue (the spatially-white noise
  // floor) before the Bartlett comparison in the combined scheme. Removes
  // AWGN and receiver-local interference from the angular statistic.
  bool noise_floor_subtraction = true;

  // Auto-threshold margin: threshold = mean + sigma * std of empty-window
  // scores (used by CalibrateThreshold).
  double threshold_sigma = 3.0;
};

// Every buffer the scoring hot path needs, owned by the caller so repeated
// Score calls perform zero heap allocations after the first window. One
// scratch serves one detector shape at a time; sharing it across detectors
// is safe (buffers re-grow) but defeats the warm-up.
struct DetectorScratch {
  // Observability shard the scoring path reports into: per-stage timings
  // (sanitize, subcarrier weighting, MUSIC/path weighting, score) plus the
  // windows-scored and profile-stack cache counters. Null (the default) is
  // the no-op sink — scoring reads no clocks and bumps no counters.
  // Recording never changes a score.
  obs::Registry* metrics = nullptr;
  SanitizeScratch sanitize;
  std::vector<wifi::CsiPacket> sanitized;
  MultipathScratch multipath;
  std::vector<std::vector<double>> mu;
  std::vector<const double*> mu_rows;
  std::vector<double> mu_medians;
  MuMedianScratch mu_median;
  SubcarrierWeights weights;
  std::vector<double> median_scratch;
  // Power-row fold (subcarrier and variance schemes): the window's power
  // rows when the caller did not prepare them (packet-major, one row of
  // antennas x subcarriers per packet), the row views the selection kernel
  // reads, and the per-cell centre (median or mean) and statistic.
  std::vector<double> power_block;
  std::vector<const double*> power_rows;
  std::vector<const double*> fold_rows;
  std::vector<double> cell_center;
  std::vector<double> cell_stat;
  linalg::CMatrix monitor_cov;
  linalg::CMatrix profile_cov;
  // Per-subcarrier covariance stack of the detector's retained calibration
  // packets, rebuilt whenever `profile_version` falls behind the detector's
  // profile (first use, RefreshAngularProfile, or a different Detector
  // instance).
  // Amortizes the profile-side covariance scan across windows: a warm
  // scratch combines the stack with the window's subcarrier weights in
  // O(subcarriers * antennas^2) instead of re-scanning every packet.
  SubcarrierCovarianceStack profile_stack;
  std::uint64_t profile_version = 0;
  MusicWorkspace music;
  Pseudospectrum monitor_spectrum;
  Pseudospectrum profile_spectrum;
  std::vector<double> weighted_monitor;
  std::vector<double> weighted_profile;
};

class Detector {
 public:
  // Build a detector from an empty-room calibration session. Requires >= 2
  // packets; the combined scheme additionally requires >= 2 RX antennas.
  static Detector Calibrate(const std::vector<wifi::CsiPacket>& empty_session,
                            const wifi::BandPlan& band,
                            const wifi::UniformLinearArray& array,
                            const DetectorConfig& config = {});

  // Decision statistic for a monitoring window (>= 1 packet; the combined
  // scheme needs >= 2 packets for a stable covariance). Higher = more
  // evidence of human presence.
  double Score(const std::vector<wifi::CsiPacket>& window) const;

  // Workspace variant: bit-identical to Score, but all intermediate buffers
  // live in `scratch`, so steady-state scoring is allocation-free.
  MULINK_HOT double Score(std::span<const wifi::CsiPacket> window,
                          DetectorScratch& scratch) const;

  // One monitoring window as the scorer sees it. Sanitization and every
  // cache below are deterministic per-packet maps, so a window scored from
  // sanitized packets or ingest caches is bit-identical to the same window
  // scored raw. Incremental callers (SensingEngine) compute them once per
  // packet on arrival instead of once per overlapping window.
  struct Window {
    // The window's packets, oldest first. May be empty when the caches
    // below carry everything the requested statistic reads.
    std::span<const wifi::CsiPacket> packets;
    // `packets` are already phase-sanitized, exactly as SanitizePhaseInto
    // produces them. The amplitude-only baseline reads raw packets and
    // ignores the flag.
    bool sanitized = false;
    // Antennas that contribute (bit m = antenna m; bits past
    // num_antennas() are ignored). Dead RX chains are scored around on the
    // live rows; the schemes' statistics are per-antenna averages, so the
    // scale (and the calibrated threshold) is preserved.
    std::uint32_t live_mask = ~std::uint32_t{0};
    // Score the combined scheme's fallback statistic (subcarrier-only
    // weighting, compared against fallback_threshold()) instead of the
    // angular one, which needs the full array. Required with a partial
    // live_mask; CalibrateThreshold also scores it on full-mask windows.
    // The other schemes have one statistic and ignore the flag.
    bool fallback = false;

    // Optional ingest caches, one entry per window packet in window order;
    // each is read when non-empty.
    // Multipath factors of the sanitized packets: mu_rows[m] points at
    // packet m's num_subcarriers() factors (MeasureMultipathFactorsInto)
    // and mu_medians[m] is that row's median (MuRowMediansInto).
    std::span<const double* const> mu_rows;
    std::span<const double> mu_medians;
    // Split-complex CSI slabs (antenna-major re rows then im rows, exactly
    // kernels::Deinterleave's bytes; see SampleCovarianceSlabsInto) for the
    // combined scheme's angular statistic.
    std::span<const double* const> csi_slabs;
    // Power rows (PowerRowInto) for the subcarrier-weighting statistic
    // (the combined scheme's fallback included) and the variance one.
    std::span<const double* const> power_rows;
    // Baseline packet distances (BaselinePacketScore) under the current
    // profile_epoch(); full-mask windows only.
    std::span<const double> baseline_scores;
  };

  // The one scoring implementation behind every Score overload.
  MULINK_HOT double Score(const Window& window,
                          DetectorScratch& scratch) const;

  // One packet's power row: row[m * subcarriers + k] = std::norm of CSI
  // cell (m, k), antenna-major — a deterministic per-packet map of the
  // sanitized packet, like the multipath factors. `row` holds
  // antennas x subcarriers doubles.
  static void PowerRowInto(const wifi::CsiPacket& packet, double* row);

  // Per-packet contribution to the baseline statistic: the full-mask inner
  // body of ScoreBaseline (sum over antennas of the normalized amplitude
  // distance to the profile). A deterministic per-packet map of the RAW
  // packet, so ingest paths cache one double per ring slot and hand the
  // window's values to Score as Window::baseline_scores instead of
  // re-walking window_packets x antennas x subcarriers every hop. Values
  // are tied to profile_epoch(): a profile rewrite invalidates them.
  MULINK_HOT double BaselinePacketScore(const wifi::CsiPacket& packet) const;

  // Monotonic epoch of the amplitude profile the baseline statistic reads;
  // bumped by Calibrate and ApplyProfile. Caches of BaselinePacketScore
  // stamped with an older epoch must recompute.
  std::uint64_t profile_epoch() const { return profile_epoch_; }

  // Whether Score sanitizes its input (every scheme except the baseline,
  // which is amplitude-only). When false, callers must not pre-sanitize —
  // feed raw windows to Score.
  bool UsesSanitizedInput() const {
    return config_.scheme != DetectionScheme::kBaseline;
  }

  const wifi::BandPlan& band() const { return band_; }

  // Score every consecutive window of config.window_packets in a session.
  std::vector<double> ScoreSession(
      const std::vector<wifi::CsiPacket>& session) const;

  bool Detect(const std::vector<wifi::CsiPacket>& window) const;

  // Set the operating threshold directly (e.g. from a ROC sweep).
  void SetThreshold(double threshold) {
    threshold_ = threshold;
    threshold_set_ = true;
  }
  double threshold() const { return threshold_; }
  bool has_threshold() const { return threshold_set_; }

  // Threshold for fallback-statistic decisions (Window::fallback).
  // CalibrateThreshold derives it from the same empty windows when the
  // scheme is the combined one (whose fallback statistic lives on a
  // different scale); every other scheme shares the primary threshold.
  void SetFallbackThreshold(double threshold) {
    fallback_threshold_ = threshold;
    fallback_threshold_set_ = true;
  }
  double fallback_threshold() const {
    return fallback_threshold_set_ ? fallback_threshold_ : threshold_;
  }

  // Derive the threshold from held-out empty-room windows:
  // mean + threshold_sigma * std of their scores.
  void CalibrateThreshold(
      const std::vector<std::vector<wifi::CsiPacket>>& empty_windows);

  // In-place recalibration entry points for core/calibration's ladder. Both
  // run between windows, never mid-score — the caller owns that contract.
  //
  // Overwrite the static profile with posterior means (flattened row-major
  // [antenna][subcarrier] spans) and re-derive the normalization scales.
  // Allocation-free: the double-buffered swap writes the staged values over
  // the active profile without touching packet buffers or the threshold.
  // Throws PreconditionError, with the active profile untouched, unless the
  // staged mean power is finite and positive.
  void ApplyProfile(std::span<const double> power,
                    std::span<const double> amplitude,
                    std::span<const double> variance);

  // Rotate staged sanitized quiet packets into the retained calibration set
  // (oldest first, reusing each slot's CSI buffer) and recompute the static
  // pseudospectrum and Eq. 17 path weights, so the combined scheme's
  // angular profile follows the recalibrated environment. Cold path; no-op
  // for single-antenna links or an empty `staged`.
  void RefreshAngularProfile(std::span<const wifi::CsiPacket> staged);

  // Calibrated shape (rows / columns of every CSI matrix this detector
  // accepts).
  std::size_t num_antennas() const { return num_antennas_; }
  std::size_t num_subcarriers() const { return num_subcarriers_; }

  // Introspection for the characterization benches.
  const Pseudospectrum& static_spectrum() const { return static_spectrum_; }
  const PathWeights& path_weights() const { return path_weights_; }
  const std::vector<std::vector<double>>& profile_power() const {
    return profile_power_;
  }
  const DetectorConfig& config() const { return config_; }

 private:
  Detector(const wifi::BandPlan& band, const wifi::UniformLinearArray& array,
           const DetectorConfig& config);

  // All antennas usable (the non-degraded case; bit m = antenna m).
  std::uint32_t FullAntennaMask() const;

  // The scheme bodies below read the window's sanitized packets (or its
  // caches); only antennas in live_mask contribute (the full mask
  // reproduces the clean statistic bit for bit).
  double ScoreBaseline(const Window& window, std::uint32_t live_mask) const;
  // Eq. 13–15 window weights into scratch.weights — from the cached
  // per-packet factors when given, else measured from the sanitized window.
  void ComputeWindowWeights(std::span<const wifi::CsiPacket> sanitized,
                            const Window& window,
                            DetectorScratch& scratch) const;
  double ScoreSubcarrierWeighting(std::span<const wifi::CsiPacket> sanitized,
                                  const Window& window,
                                  std::uint32_t live_mask,
                                  DetectorScratch& scratch) const;
  // The window's power rows: the cached ones when given, else filled into
  // scratch from the sanitized packets in one pass.
  std::span<const double* const> WindowPowerRows(
      std::span<const wifi::CsiPacket> sanitized, const Window& window,
      DetectorScratch& scratch) const;
  // Per-cell window statistic of the power rows into scratch.cell_stat,
  // for the antennas in live_mask: the level (median, or mean when
  // robust_window_aggregate is off) or the spread ((1.4826 MAD)^2, or the
  // variance). Each cell folds its rows in window order.
  void FoldPowerRows(std::span<const double* const> rows,
                     std::uint32_t live_mask, bool spread,
                     DetectorScratch& scratch) const;
  double ScoreCombined(std::span<const wifi::CsiPacket> sanitized,
                       const Window& window, DetectorScratch& scratch) const;
  double ScoreVarianceMobile(std::span<const wifi::CsiPacket> sanitized,
                             const Window& window, std::uint32_t live_mask,
                             DetectorScratch& scratch) const;

  wifi::BandPlan band_;
  wifi::UniformLinearArray array_;
  DetectorConfig config_;

  std::size_t num_antennas_ = 0;
  std::size_t num_subcarriers_ = 0;

  // Static profile: mean power / amplitude / temporal variance per
  // (antenna, subcarrier).
  std::vector<std::vector<double>> profile_power_;
  std::vector<std::vector<double>> profile_amplitude_;
  std::vector<std::vector<double>> profile_variance_;
  // Mean per-antenna profile power (normalization scale).
  double profile_scale_power_ = 0.0;
  double profile_scale_amplitude_ = 0.0;

  std::vector<wifi::CsiPacket> retained_calibration_;
  std::size_t retained_rotation_ = 0;
  // Process-unique version of retained_calibration_'s contents; compared
  // against DetectorScratch::profile_version to invalidate its cached
  // covariance stack. Unique across Detector instances so one scratch can
  // be shared between detectors without cross-talk.
  std::uint64_t profile_version_ = 0;
  // Epoch of profile_amplitude_/profile_scale_amplitude_ (the baseline
  // statistic's inputs); drawn from the same process-unique counter as
  // profile_version_ so sharing a scratch across detectors stays safe.
  std::uint64_t profile_epoch_ = 0;
  Pseudospectrum static_spectrum_;
  PathWeights path_weights_;

  double threshold_ = 0.0;
  bool threshold_set_ = false;
  double fallback_threshold_ = 0.0;
  bool fallback_threshold_set_ = false;
};

}  // namespace mulink::core
