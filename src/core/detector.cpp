#include "core/detector.h"

#include <algorithm>

#include <atomic>
#include <bit>
#include <cmath>

#include "common/assert.h"
#include "core/multipath_factor.h"
#include "core/sanitize.h"
#include "dsp/stats.h"
#include "kernels/kernels.h"
#include "linalg/hermitian_eig.h"

namespace mulink::core {

namespace {

// Process-unique profile versions: every (re)build of a detector's retained
// calibration set gets a fresh value, so a DetectorScratch shared across
// detector instances never reuses a stale covariance stack.
std::uint64_t NextProfileVersion() {
  static std::atomic<std::uint64_t> counter{0};
  // Relaxed is sufficient (and what the analyzer's atomics rule demands be
  // said out loud): the value is only used for uniqueness, never to order
  // other memory.
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

// Gaussian smoothing (degrees) applied to pseudospectra before they are
// compared / inverted into Eq. 17 weights. Roughly the 3-antenna array's
// angular resolution; keeps the spectrum distance stable under the +-1
// grid-point peak jitter of finite-sample MUSIC.
constexpr double kSpectrumSmoothingDeg = 6.0;

}  // namespace

const char* ToString(DetectionScheme scheme) {
  switch (scheme) {
    case DetectionScheme::kBaseline:
      return "baseline";
    case DetectionScheme::kSubcarrierWeighting:
      return "subcarrier-weighting";
    case DetectionScheme::kSubcarrierAndPathWeighting:
      return "subcarrier+path-weighting";
    case DetectionScheme::kVarianceMobile:
      return "variance-mobile";
  }
  return "unknown";
}

Detector::Detector(const wifi::BandPlan& band,
                   const wifi::UniformLinearArray& array,
                   const DetectorConfig& config)
    : band_(band), array_(array), config_(config) {}

Detector Detector::Calibrate(const std::vector<wifi::CsiPacket>& empty_session,
                             const wifi::BandPlan& band,
                             const wifi::UniformLinearArray& array,
                             const DetectorConfig& config) {
  MULINK_REQUIRE(empty_session.size() >= 2,
                 "Detector::Calibrate: need >= 2 calibration packets");
  const std::size_t num_ant = empty_session[0].NumAntennas();
  const std::size_t num_sc = empty_session[0].NumSubcarriers();
  MULINK_REQUIRE(num_sc == band.NumSubcarriers(),
                 "Detector::Calibrate: packet/band subcarrier mismatch");
  MULINK_REQUIRE(num_ant == array.num_antennas(),
                 "Detector::Calibrate: packet/array antenna mismatch");
  if (config.scheme == DetectionScheme::kSubcarrierAndPathWeighting) {
    MULINK_REQUIRE(num_ant >= 2,
                   "Detector::Calibrate: combined scheme needs >= 2 antennas");
  }

  Detector d(band, array, config);
  d.num_antennas_ = num_ant;
  d.num_subcarriers_ = num_sc;

  const auto sanitized = SanitizePhase(empty_session, band);

  // Static power/amplitude profile s(0).
  // mulink-lint: allow(alloc): calibration path
  d.profile_power_.assign(num_ant, std::vector<double>(num_sc, 0.0));
  // mulink-lint: allow(alloc): calibration path
  d.profile_amplitude_.assign(num_ant, std::vector<double>(num_sc, 0.0));
  for (const auto& packet : sanitized) {
    for (std::size_t m = 0; m < num_ant; ++m) {
      for (std::size_t k = 0; k < num_sc; ++k) {
        const double p = packet.SubcarrierPower(m, k);
        d.profile_power_[m][k] += p;
        d.profile_amplitude_[m][k] += std::sqrt(p);
      }
    }
  }
  const double inv_n = 1.0 / static_cast<double>(sanitized.size());
  double power_sum = 0.0, amp_sum = 0.0;
  for (std::size_t m = 0; m < num_ant; ++m) {
    for (std::size_t k = 0; k < num_sc; ++k) {
      d.profile_power_[m][k] *= inv_n;
      d.profile_amplitude_[m][k] *= inv_n;
      power_sum += d.profile_power_[m][k];
      amp_sum += d.profile_amplitude_[m][k];
    }
  }
  // Empty-room temporal variance per (antenna, subcarrier) — the noise/
  // dynamics floor the mobile-target variance statistic must exceed.
  // mulink-lint: allow(alloc): calibration path
  d.profile_variance_.assign(num_ant, std::vector<double>(num_sc, 0.0));
  for (const auto& packet : sanitized) {
    for (std::size_t m = 0; m < num_ant; ++m) {
      for (std::size_t k = 0; k < num_sc; ++k) {
        const double diff =
            packet.SubcarrierPower(m, k) - d.profile_power_[m][k];
        d.profile_variance_[m][k] += diff * diff;
      }
    }
  }
  for (std::size_t m = 0; m < num_ant; ++m) {
    for (std::size_t k = 0; k < num_sc; ++k) {
      d.profile_variance_[m][k] *= inv_n;
    }
  }

  d.profile_scale_power_ = power_sum / static_cast<double>(num_ant * num_sc);
  d.profile_scale_amplitude_ = amp_sum / static_cast<double>(num_ant * num_sc);
  MULINK_REQUIRE(d.profile_scale_power_ > 0.0,
                 "Detector::Calibrate: calibration session has no power");

  // Retain an even subsample of sanitized packets for monitoring-time
  // re-weighted pseudospectrum computation.
  const std::size_t keep =
      std::min(config.retained_calibration_packets, sanitized.size());
  // mulink-lint: allow(alloc): calibration path
  d.retained_calibration_.reserve(keep);
  for (std::size_t i = 0; i < keep; ++i) {
    const std::size_t idx = i * sanitized.size() / keep;
    // mulink-lint: allow(alloc): calibration path
    d.retained_calibration_.push_back(sanitized[idx]);
  }
  d.profile_version_ = NextProfileVersion();
  d.profile_epoch_ = NextProfileVersion();

  // Static pseudospectrum and Eq. 17 path weights (combined scheme only
  // needs them, but they are cheap and useful introspection for all).
  if (num_ant >= 2) {
    d.static_spectrum_ =
        ComputeMusicSpectrum(d.retained_calibration_, array, band,
                             config.music)
            .Smoothed(kSpectrumSmoothingDeg);
    d.path_weights_ =
        ComputePathWeights(d.static_spectrum_, config.path_weighting);
  }
  return d;
}

double Detector::Score(const std::vector<wifi::CsiPacket>& window) const {
  DetectorScratch scratch;
  return Score(std::span<const wifi::CsiPacket>(window), scratch);
}

double Detector::Score(std::span<const wifi::CsiPacket> window,
                       DetectorScratch& scratch) const {
  Window raw;
  raw.packets = window;
  return Score(raw, scratch);
}

double Detector::Score(const Window& window, DetectorScratch& scratch) const {
  const bool baseline = config_.scheme == DetectionScheme::kBaseline;
  const std::size_t packets =
      !window.packets.empty() ? window.packets.size()
      : baseline              ? window.baseline_scores.size()
                              : window.mu_rows.size();
  MULINK_REQUIRE(packets > 0, "Detector::Score: empty window");
  MULINK_REQUIRE(window.packets.empty() ||
                     (window.packets[0].NumAntennas() == num_antennas_ &&
                      window.packets[0].NumSubcarriers() == num_subcarriers_),
                 "Detector::Score: window dimensions mismatch calibration");
  const std::uint32_t live_mask = window.live_mask & FullAntennaMask();
  MULINK_REQUIRE(live_mask != 0, "Detector::Score: no live antennas");
  const bool full_mask = live_mask == FullAntennaMask();
  const auto fits = [packets](std::size_t size) {
    return size == 0 || size == packets;
  };
  MULINK_REQUIRE(fits(window.mu_rows.size()) &&
                     window.mu_medians.size() == window.mu_rows.size() &&
                     fits(window.csi_slabs.size()) &&
                     fits(window.power_rows.size()) &&
                     fits(window.baseline_scores.size()),
                 "Detector::Score: cache/window size mismatch");
  MULINK_REQUIRE(window.baseline_scores.empty() || full_mask,
                 "Detector::Score: baseline cache is full-mask only");
  const bool combined =
      config_.scheme == DetectionScheme::kSubcarrierAndPathWeighting;
  MULINK_REQUIRE(!combined || window.fallback || full_mask,
                 "Detector::Score: the angular statistic needs every antenna");
  // Without packets, the requested statistic must be fully cached (the
  // size check above already asks the same of the mu rows and the
  // baseline distances).
  const bool power_statistic = !baseline && (!combined || window.fallback);
  MULINK_REQUIRE(
      !window.packets.empty() || baseline ||
          !(power_statistic ? window.power_rows : window.csi_slabs).empty(),
      "Detector::Score: window packets needed without caches");
  MULINK_OBS_COUNT(scratch.metrics, kWindowsScored);
  if (baseline) {
    MULINK_OBS_STAGE_TIMER(timer, scratch.metrics, kScore);
    return ScoreBaseline(window, live_mask);
  }
  std::span<const wifi::CsiPacket> sanitized = window.packets;
  if (!window.sanitized && !sanitized.empty()) {
    MULINK_OBS_STAGE_TIMER(timer, scratch.metrics, kIngestSanitize);
    SanitizePhaseInto(window.packets, band_, scratch.sanitized,
                      scratch.sanitize);
    sanitized = scratch.sanitized;
  }
  switch (config_.scheme) {
    case DetectionScheme::kBaseline:
      break;  // scored above
    case DetectionScheme::kSubcarrierWeighting:
      return ScoreSubcarrierWeighting(sanitized, window, live_mask, scratch);
    case DetectionScheme::kSubcarrierAndPathWeighting:
      // MUSIC needs the full ULA; with a dead chain the angular statistic
      // is meaningless, so the fallback is subcarrier-only weighting over
      // the live rows (decisions use fallback_threshold()).
      return window.fallback ? ScoreSubcarrierWeighting(sanitized, window,
                                                        live_mask, scratch)
                             : ScoreCombined(sanitized, window, scratch);
    case DetectionScheme::kVarianceMobile:
      return ScoreVarianceMobile(sanitized, window, live_mask, scratch);
  }
  return 0.0;
}

std::uint32_t Detector::FullAntennaMask() const {
  return num_antennas_ >= 32 ? 0xffffffffu
                             : ((1u << num_antennas_) - 1u);
}

void Detector::ComputeWindowWeights(std::span<const wifi::CsiPacket> sanitized,
                                    const Window& window,
                                    DetectorScratch& scratch) const {
  MULINK_OBS_STAGE_TIMER(timer, scratch.metrics, kSubcarrierWeighting);
  if (!window.mu_rows.empty()) {
    ComputeSubcarrierWeightsInto(window.mu_rows, window.mu_medians,
                                 num_subcarriers_, config_.weighting_mode,
                                 scratch.weights);
  } else {
    MeasureMultipathFactorsInto(sanitized, band_, scratch.mu,
                                scratch.multipath);
    // mulink-lint: allow(alloc): warm scratch; capacity sticks after first window
    scratch.mu_rows.resize(sanitized.size());
    // mulink-lint: allow(alloc): warm scratch; capacity sticks after first window
    scratch.mu_medians.resize(sanitized.size());
    for (std::size_t i = 0; i < sanitized.size(); ++i) {
      scratch.mu_rows[i] = scratch.mu[i].data();
    }
    MuRowMediansInto(scratch.mu_rows, num_subcarriers_,
                     scratch.mu_medians.data(), scratch.mu_median);
    ComputeSubcarrierWeightsInto(scratch.mu_rows, scratch.mu_medians,
                                 num_subcarriers_, config_.weighting_mode,
                                 scratch.weights);
  }
}

std::vector<double> Detector::ScoreSession(
    const std::vector<wifi::CsiPacket>& session) const {
  MULINK_REQUIRE(session.size() >= config_.window_packets,
                 "Detector::ScoreSession: session shorter than one window");
  std::vector<double> scores;
  const std::size_t m = config_.window_packets;
  // mulink-lint: allow(alloc): legacy convenience API; engine path is allocation-free
  scores.reserve(session.size() / m);
  DetectorScratch scratch;
  const std::span<const wifi::CsiPacket> all(session);
  for (std::size_t start = 0; start + m <= session.size(); start += m) {
    // mulink-lint: allow(alloc): legacy convenience API; engine path is allocation-free
    scores.push_back(Score(all.subspan(start, m), scratch));
  }
  return scores;
}

bool Detector::Detect(const std::vector<wifi::CsiPacket>& window) const {
  MULINK_REQUIRE(threshold_set_,
                 "Detector::Detect: threshold not calibrated; call "
                 "SetThreshold or CalibrateThreshold first");
  return Score(window) >= threshold_;
}

void Detector::CalibrateThreshold(
    const std::vector<std::vector<wifi::CsiPacket>>& empty_windows) {
  MULINK_REQUIRE(empty_windows.size() >= 2,
                 "Detector::CalibrateThreshold: need >= 2 empty windows");
  std::vector<double> scores;
  // mulink-lint: allow(alloc): calibration path
  scores.reserve(empty_windows.size());
  DetectorScratch scratch;
  for (const auto& w : empty_windows) {
    // mulink-lint: allow(alloc): calibration path
    scores.push_back(Score(std::span<const wifi::CsiPacket>(w), scratch));
  }
  threshold_ =
      dsp::Mean(scores) + config_.threshold_sigma * dsp::StdDev(scores);
  threshold_set_ = true;

  // The combined scheme's degraded fallback (subcarrier-only weighting)
  // lives on a different scale than the angular statistic, so derive its
  // threshold from the same empty windows. The other schemes' degraded
  // statistic is a per-antenna average of the primary one — same scale,
  // same threshold.
  if (config_.scheme == DetectionScheme::kSubcarrierAndPathWeighting) {
    std::vector<double> fallback_scores;
    // mulink-lint: allow(alloc): calibration path
    fallback_scores.reserve(empty_windows.size());
    Window fallback;
    fallback.fallback = true;
    for (const auto& w : empty_windows) {
      fallback.packets = w;
      // mulink-lint: allow(alloc): calibration path
      fallback_scores.push_back(Score(fallback, scratch));
    }
    fallback_threshold_ = dsp::Mean(fallback_scores) +
                          config_.threshold_sigma * dsp::StdDev(fallback_scores);
    fallback_threshold_set_ = true;
  }
}

void Detector::ApplyProfile(std::span<const double> power,
                            std::span<const double> amplitude,
                            std::span<const double> variance) {
  const std::size_t cells = num_antennas_ * num_subcarriers_;
  MULINK_REQUIRE(power.size() == cells && amplitude.size() == cells &&
                     variance.size() == cells,
                 "Detector::ApplyProfile: shape mismatch");
  // Checked before anything is written: a rejected profile leaves the
  // active one intact.
  double power_sum = 0.0, amp_sum = 0.0;
  for (std::size_t idx = 0; idx < cells; ++idx) {
    power_sum += power[idx];
    amp_sum += amplitude[idx];
  }
  const double scale_power = power_sum / static_cast<double>(cells);
  MULINK_REQUIRE(std::isfinite(scale_power) && scale_power > 0.0,
                 "Detector::ApplyProfile: staged profile has no power");
  for (std::size_t m = 0; m < num_antennas_; ++m) {
    for (std::size_t k = 0; k < num_subcarriers_; ++k) {
      const std::size_t idx = m * num_subcarriers_ + k;
      profile_power_[m][k] = power[idx];
      profile_amplitude_[m][k] = amplitude[idx];
      profile_variance_[m][k] = variance[idx];
    }
  }
  profile_scale_power_ = scale_power;
  profile_scale_amplitude_ = amp_sum / static_cast<double>(cells);
  profile_epoch_ = NextProfileVersion();
}

void Detector::RefreshAngularProfile(
    std::span<const wifi::CsiPacket> staged) {
  if (staged.empty() || retained_calibration_.empty() || num_antennas_ < 2) {
    return;
  }
  MULINK_REQUIRE(staged[0].NumAntennas() == num_antennas_ &&
                     staged[0].NumSubcarriers() == num_subcarriers_,
                 "Detector::RefreshAngularProfile: packet shape mismatch");
  // Re-anchor the retained packets onto the ACTIVE profile's per-cell
  // amplitude before rotating the staged slice in. The rotation below only
  // replaces a fraction of the set, and both the pseudospectrum and the
  // combined scheme's profile-side covariance are built from the retained
  // packets — left at the pre-drift gain they would dominate the profile
  // statistics no matter what ApplyProfile installed. Scaling each cell's
  // amplitude to the applied profile keeps the packets' phase structure
  // (the angular information) while moving their scale to the new operating
  // point; a gain ramp or AGC step is a real scalar, so for those faults
  // the correction is exact.
  for (std::size_t m = 0; m < num_antennas_; ++m) {
    for (std::size_t k = 0; k < num_subcarriers_; ++k) {
      double stale_amp = 0.0;
      for (const auto& packet : retained_calibration_) {
        stale_amp += std::sqrt(packet.SubcarrierPower(m, k));
      }
      stale_amp /= static_cast<double>(retained_calibration_.size());
      const double target = profile_amplitude_[m][k];
      if (stale_amp <= 0.0 || target <= 0.0) continue;
      const double scale = target / stale_amp;
      for (auto& packet : retained_calibration_) {
        packet.csi.At(m, k) *= scale;
      }
    }
  }
  const std::size_t rotate =
      std::min(staged.size(), retained_calibration_.size());
  for (std::size_t i = 0; i < rotate; ++i) {
    // Copy-assign reuses the slot's CSI buffer; the rotation cursor keeps
    // replacing the oldest retained packets first.
    retained_calibration_[retained_rotation_ %
                          retained_calibration_.size()] = staged[i];
    ++retained_rotation_;
  }
  profile_version_ = NextProfileVersion();
  static_spectrum_ =
      ComputeMusicSpectrum(retained_calibration_, array_, band_,
                           config_.music)
          .Smoothed(kSpectrumSmoothingDeg);
  path_weights_ =
      ComputePathWeights(static_spectrum_, config_.path_weighting);
}

double Detector::ScoreBaseline(const Window& window,
                               std::uint32_t live_mask) const {
  // The paper's baseline is the naive per-packet Euclidean distance of CSI
  // amplitudes against the profile (the prior-work recipe its evaluation
  // compares against). Averaging the *distances* rather than the CSI keeps
  // the per-packet noise floor inside the statistic — which is exactly why
  // this baseline loses weak/faraway targets. The statistic is a
  // per-antenna average, so restricting it to the live rows of a degraded
  // window preserves its scale (and the calibrated threshold).
  const double live = static_cast<double>(std::popcount(live_mask));
  double score = 0.0;
  if (!window.baseline_scores.empty()) {
    // Ingest-cached full-mask packet distances: the same accumulation
    // order and divisors as the packet walk below, so the fold is
    // bit-identical.
    for (const double packet_score : window.baseline_scores) {
      score += packet_score / live;
    }
    return score / static_cast<double>(window.baseline_scores.size());
  }
  for (const auto& packet : window.packets) {
    double packet_score = 0.0;
    for (std::size_t m = 0; m < num_antennas_; ++m) {
      if (((live_mask >> m) & 1u) == 0) continue;
      double sum_sq = 0.0;
      for (std::size_t k = 0; k < num_subcarriers_; ++k) {
        const double amp = std::sqrt(packet.SubcarrierPower(m, k));
        const double diff =
            (amp - profile_amplitude_[m][k]) / profile_scale_amplitude_;
        sum_sq += diff * diff;
      }
      packet_score += std::sqrt(sum_sq);
    }
    score += packet_score / live;
  }
  return score / static_cast<double>(window.packets.size());
}

double Detector::BaselinePacketScore(const wifi::CsiPacket& packet) const {
  // Exactly one full-mask iteration of ScoreBaseline's packet loop: the
  // antennas accumulate in index order and the per-antenna subcarrier walk
  // is unchanged, so ScoreBaseline's fold of these values reproduces its
  // packet walk bit for bit. The walk reads the packet's
  // contiguous antenna-major cells directly.
  MULINK_REQUIRE(packet.NumAntennas() == num_antennas_ &&
                     packet.NumSubcarriers() == num_subcarriers_,
                 "Detector::BaselinePacketScore: packet shape mismatch");
  const Complex* cell = packet.csi.raw();
  double packet_score = 0.0;
  for (std::size_t m = 0; m < num_antennas_; ++m) {
    const double* profile = profile_amplitude_[m].data();
    double sum_sq = 0.0;
    for (std::size_t k = 0; k < num_subcarriers_; ++k) {
      const double amp = std::sqrt(std::norm(cell[k]));
      const double diff = (amp - profile[k]) / profile_scale_amplitude_;
      sum_sq += diff * diff;
    }
    packet_score += std::sqrt(sum_sq);
    cell += num_subcarriers_;
  }
  return packet_score;
}

void Detector::PowerRowInto(const wifi::CsiPacket& packet, double* row) {
  const Complex* cell = packet.csi.raw();
  const std::size_t cells = packet.NumAntennas() * packet.NumSubcarriers();
  for (std::size_t c = 0; c < cells; ++c) row[c] = std::norm(cell[c]);
}

std::span<const double* const> Detector::WindowPowerRows(
    std::span<const wifi::CsiPacket> sanitized, const Window& window,
    DetectorScratch& scratch) const {
  if (!window.power_rows.empty()) return window.power_rows;
  const std::size_t cells = num_antennas_ * num_subcarriers_;
  // mulink-lint: allow(alloc): warm scratch; capacity sticks after first window
  scratch.power_block.resize(sanitized.size() * cells);
  // mulink-lint: allow(alloc): warm scratch; capacity sticks after first window
  scratch.power_rows.resize(sanitized.size());
  for (std::size_t i = 0; i < sanitized.size(); ++i) {
    MULINK_REQUIRE(sanitized[i].NumAntennas() == num_antennas_ &&
                       sanitized[i].NumSubcarriers() == num_subcarriers_,
                   "Detector: window packet shape mismatch");
    double* const row = scratch.power_block.data() + i * cells;
    PowerRowInto(sanitized[i], row);
    scratch.power_rows[i] = row;
  }
  return scratch.power_rows;
}

void Detector::FoldPowerRows(std::span<const double* const> rows,
                             std::uint32_t live_mask, bool spread,
                             DetectorScratch& scratch) const {
  const std::size_t n = rows.size();
  const std::size_t num_sc = num_subcarriers_;
  const std::size_t cells = num_antennas_ * num_sc;
  auto& stat = scratch.cell_stat;
  auto& center = scratch.cell_center;
  // mulink-lint: allow(alloc): warm scratch; capacity sticks after first window
  stat.resize(cells);
  // mulink-lint: allow(alloc): warm scratch; capacity sticks after first window
  center.resize(cells);
  // mulink-lint: allow(alloc): warm scratch; capacity sticks after first window
  scratch.fold_rows.resize(n);
  // mulink-lint: allow(alloc): warm scratch; capacity sticks after first window
  scratch.median_scratch.resize(n);
  // Each run of adjacent live antennas is one contiguous block of columns
  // (a full mask is a single run over every cell).
  for (std::size_t first = 0; first < num_antennas_;) {
    if (((live_mask >> first) & 1u) == 0) {
      ++first;
      continue;
    }
    std::size_t last = first + 1;
    while (last < num_antennas_ && ((live_mask >> last) & 1u) != 0) ++last;
    const std::size_t base = first * num_sc;
    const std::size_t cols = (last - first) * num_sc;
    first = last;
    double* const level = (spread ? center.data() : stat.data()) + base;
    if (!config_.robust_window_aggregate) {
      // dsp::Mean / dsp::Variance per cell, rows added in window order.
      std::fill(level, level + cols, 0.0);
      for (const double* row : rows) {
        for (std::size_t c = 0; c < cols; ++c) level[c] += row[base + c];
      }
      for (std::size_t c = 0; c < cols; ++c) {
        level[c] /= static_cast<double>(n);
      }
      if (!spread) continue;
      double* const var = stat.data() + base;
      std::fill(var, var + cols, 0.0);
      for (const double* row : rows) {
        for (std::size_t c = 0; c < cols; ++c) {
          const double d = row[base + c] - level[c];
          var[c] += d * d;
        }
      }
      for (std::size_t c = 0; c < cols; ++c) {
        var[c] /= static_cast<double>(n);
      }
      continue;
    }
    // Exact selection: the values dsp::Median and dsp::MedianAbsDeviation
    // return for each cell's window column.
    for (std::size_t i = 0; i < n; ++i) scratch.fold_rows[i] = rows[i] + base;
    kernels::ColumnMedians(scratch.fold_rows.data(), n, cols, level,
                           scratch.median_scratch.data());
    if (!spread) continue;
    double* const mad = stat.data() + base;
    kernels::ColumnMedianDeviations(scratch.fold_rows.data(), n, cols, level,
                                    mad, scratch.median_scratch.data());
    for (std::size_t c = 0; c < cols; ++c) {
      const double robust_sigma = 1.4826 * mad[c];
      mad[c] = robust_sigma * robust_sigma;
    }
  }
}

double Detector::ScoreSubcarrierWeighting(
    std::span<const wifi::CsiPacket> sanitized, const Window& window,
    std::uint32_t live_mask, DetectorScratch& scratch) const {
  ComputeWindowWeights(sanitized, window, scratch);
  MULINK_OBS_STAGE_TIMER(score_timer, scratch.metrics, kScore);
  const auto& weights = scratch.weights;

  // Uniform weight reference so weighting redistributes emphasis without
  // changing the overall score scale (weights sum to <= 1 by construction).
  const double uniform = 1.0 / static_cast<double>(num_subcarriers_);

  // Dead rows contribute zero mu to the antenna-averaged factors, which
  // scales every mu_bar_k by the same constant — Eq. 15 normalizes it away,
  // so the weights are unaffected. Only the power distance below must skip
  // the dead rows (a silent chain reads as a full-profile deviation).
  const std::size_t live = static_cast<std::size_t>(
      std::popcount(live_mask & FullAntennaMask()));
  FoldPowerRows(WindowPowerRows(sanitized, window, scratch), live_mask,
                /*spread=*/false, scratch);
  double score = 0.0;
  for (std::size_t m = 0; m < num_antennas_; ++m) {
    if (((live_mask >> m) & 1u) == 0) continue;
    const double* const window_power =
        scratch.cell_stat.data() + m * num_subcarriers_;
    double sum_sq = 0.0;
    for (std::size_t k = 0; k < num_subcarriers_; ++k) {
      // Eq. 12's linear power difference, normalized by the profile's mean
      // power so one global threshold works across links. (A dB-domain
      // difference was evaluated and rejected: the log expands the noise of
      // deep-fade subcarriers — exactly the ones Eq. 15 up-weights.)
      const double delta_s =
          (window_power[k] - profile_power_[m][k]) / profile_scale_power_;
      const double weighted = (weights.weights[k] / uniform) * delta_s;
      sum_sq += weighted * weighted;
    }
    score += std::sqrt(sum_sq);
  }
  return score / static_cast<double>(live);
}

double Detector::ScoreVarianceMobile(
    std::span<const wifi::CsiPacket> sanitized, const Window& window,
    std::uint32_t live_mask, DetectorScratch& scratch) const {
  const std::size_t packets =
      window.mu_rows.empty() ? sanitized.size() : window.mu_rows.size();
  MULINK_REQUIRE(packets >= 2,
                 "Detector: variance statistic needs >= 2 packets");
  ComputeWindowWeights(sanitized, window, scratch);
  MULINK_OBS_STAGE_TIMER(score_timer, scratch.metrics, kScore);
  const auto& weights = scratch.weights;
  const double uniform = 1.0 / static_cast<double>(num_subcarriers_);

  const std::size_t live = static_cast<std::size_t>(
      std::popcount(live_mask & FullAntennaMask()));
  // EXCESS temporal spread over the empty-room floor (walkers, noise and
  // interference already vibrate the channel; only spread beyond that is
  // evidence of a moving person). The robust aggregate swaps the variance
  // for a MAD-based estimate that one interference burst cannot inflate;
  // both are normalized like Delta_s so one global threshold works across
  // links.
  FoldPowerRows(WindowPowerRows(sanitized, window, scratch), live_mask,
                /*spread=*/true, scratch);
  double score = 0.0;
  for (std::size_t m = 0; m < num_antennas_; ++m) {
    if (((live_mask >> m) & 1u) == 0) continue;
    const double* const window_variance =
        scratch.cell_stat.data() + m * num_subcarriers_;
    double sum_sq = 0.0;
    for (std::size_t k = 0; k < num_subcarriers_; ++k) {
      const double excess =
          std::max(0.0, window_variance[k] - profile_variance_[m][k]);
      const double sigma = std::sqrt(excess) / profile_scale_power_;
      const double weighted = (weights.weights[k] / uniform) * sigma;
      sum_sq += weighted * weighted;
    }
    score += std::sqrt(sum_sq);
  }
  return score / static_cast<double>(live);
}

double Detector::ScoreCombined(std::span<const wifi::CsiPacket> sanitized,
                               const Window& window,
                               DetectorScratch& scratch) const {
  MULINK_REQUIRE(num_antennas_ >= 2,
                 "Detector: combined scheme needs >= 2 antennas");
  ComputeWindowWeights(sanitized, window, scratch);
  const auto& weights = scratch.weights;

  // Same monitoring-stage subcarrier weights applied to both sides — valid
  // because the Bartlett angular spectrum is linear in per-subcarrier
  // strength (the "linear properties" argument of Sec. IV-C) — then the
  // Eq. 17 path weights from the calibration-stage MUSIC spectrum.
  auto& monitor_cov = scratch.monitor_cov;
  auto& profile_cov = scratch.profile_cov;
  {
    MULINK_OBS_STAGE_TIMER(timer, scratch.metrics, kMusicPathWeighting);
    if (!window.csi_slabs.empty()) {
      // Ingest-split slabs: same bytes, no per-window re-deinterleave.
      SampleCovarianceSlabsInto(window.csi_slabs, num_antennas_,
                                num_subcarriers_, weights.weights,
                                monitor_cov, scratch.music);
    } else {
      SampleCovarianceInto(std::span<const wifi::CsiPacket>(sanitized),
                           weights.weights, monitor_cov, scratch.music);
    }
    // The profile side scores a *fixed* packet set against per-window
    // weights, so its per-subcarrier covariance stack is cached in the
    // workspace and only re-combined here; the full packet scan happens once
    // per profile version (first window, or after RefreshAngularProfile
    // rotates the set).
    if (scratch.profile_version != profile_version_) {
      MULINK_OBS_COUNT(scratch.metrics, kProfileStackRebuilds);
      BuildSubcarrierCovarianceStack(
          std::span<const wifi::CsiPacket>(retained_calibration_),
          scratch.profile_stack);
      scratch.profile_version = profile_version_;
    } else {
      MULINK_OBS_COUNT(scratch.metrics, kProfileStackHits);
    }
    CombineSubcarrierCovariances(scratch.profile_stack, weights.weights,
                                 profile_cov);
    if (config_.noise_floor_subtraction) {
      // Spatially-white components (AWGN, receiver-local interference) add
      // lambda_min * I to the covariance; removing it keeps the angular
      // statistic about propagation paths only. Only lambda_min is needed,
      // so the closed-form smallest-eigenvalue path skips the full Jacobi
      // diagonalization the MUSIC calibration stage still uses.
      for (auto* cov : {&monitor_cov, &profile_cov}) {
        const double floor =
            std::max(linalg::SmallestHermitianEigenvalue(*cov), 0.0);
        for (std::size_t i = 0; i < cov->rows(); ++i) {
          cov->At(i, i) -= Complex(floor, 0.0);
        }
      }
    }
    // Both Bartlett scans share one pass over the steering table.
    ComputeBartlettSpectraInto(monitor_cov, profile_cov, array_, band_,
                               config_.music, scratch.monitor_spectrum,
                               scratch.profile_spectrum, scratch.music);

    ApplyPathWeightsInto(path_weights_, scratch.monitor_spectrum,
                         scratch.weighted_monitor);
    ApplyPathWeightsInto(path_weights_, scratch.profile_spectrum,
                         scratch.weighted_profile);
  }
  MULINK_OBS_STAGE_TIMER(score_timer, scratch.metrics, kScore);
  const auto& weighted_monitor = scratch.weighted_monitor;
  const auto& weighted_profile = scratch.weighted_profile;

  // Euclidean distance of the weighted spectra, normalized by the weighted
  // profile so one global threshold works across links of different length.
  const double norm_profile = std::sqrt(
      kernels::SumSquares(weighted_profile.data(), weighted_profile.size()));
  MULINK_ASSERT_MSG(norm_profile > 0.0,
                    "combined score: weighted profile spectrum is all zero");
  return std::sqrt(kernels::NormalizedDistanceSq(
      weighted_monitor.data(), weighted_profile.data(), norm_profile,
      weighted_monitor.size()));
}

}  // namespace mulink::core
