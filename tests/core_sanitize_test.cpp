#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/constants.h"
#include "common/error.h"
#include "common/rng.h"
#include "core/sanitize.h"
#include "dsp/fit.h"
#include "kernels/kernels.h"
#include "propagation/path.h"
#include "wifi/cfr.h"
#include "wifi/noise.h"

namespace mulink::core {
namespace {

wifi::CsiPacket MakePacket(const linalg::CMatrix& csi) {
  wifi::CsiPacket p;
  p.csi = csi;
  return p;
}

TEST(Unwrap, NoJumpsUnchanged) {
  const std::vector<double> phases = {0.0, 0.3, 0.6, 0.9};
  EXPECT_EQ(UnwrapPhase(phases), phases);
}

TEST(Unwrap, RecoversLinearRamp) {
  // A steep linear ramp wrapped into (-pi, pi] unwraps back to a line.
  std::vector<double> wrapped;
  const double slope = 1.9;  // rad per step, below the pi Nyquist limit
  for (int i = 0; i < 40; ++i) {
    double ph = slope * i;
    while (ph > kPi) ph -= 2.0 * kPi;
    wrapped.push_back(ph);
  }
  const auto unwrapped = UnwrapPhase(wrapped);
  for (int i = 0; i < 40; ++i) {
    EXPECT_NEAR(unwrapped[static_cast<std::size_t>(i)], slope * i, 1e-9);
  }
}

TEST(Unwrap, HandlesNegativeRamp) {
  std::vector<double> wrapped;
  for (int i = 0; i < 30; ++i) {
    double ph = -0.9 * i;
    while (ph <= -kPi) ph += 2.0 * kPi;
    wrapped.push_back(ph);
  }
  const auto unwrapped = UnwrapPhase(wrapped);
  for (int i = 1; i < 30; ++i) {
    EXPECT_NEAR(unwrapped[static_cast<std::size_t>(i)] -
                    unwrapped[static_cast<std::size_t>(i - 1)],
                -0.9, 1e-9);
  }
}

TEST(Sanitize, RemovesCommonPhase) {
  const auto band = wifi::BandPlan::Intel5300Channel11();
  linalg::CMatrix csi(1, band.NumSubcarriers());
  const double common = 1.234;
  for (std::size_t k = 0; k < band.NumSubcarriers(); ++k) {
    csi.At(0, k) = std::polar(1.0, common);
  }
  const auto clean = SanitizePhase(MakePacket(csi), band);
  for (std::size_t k = 0; k < band.NumSubcarriers(); ++k) {
    EXPECT_NEAR(std::arg(clean.csi.At(0, k)), 0.0, 1e-9);
    EXPECT_NEAR(std::abs(clean.csi.At(0, k)), 1.0, 1e-12);
  }
}

TEST(Sanitize, RemovesStoSlope) {
  const auto band = wifi::BandPlan::Intel5300Channel11();
  linalg::CMatrix csi(1, band.NumSubcarriers());
  const double sto = 60e-9;
  for (std::size_t k = 0; k < band.NumSubcarriers(); ++k) {
    csi.At(0, k) = std::polar(1.0, -2.0 * kPi * band.OffsetHz(k) * sto);
  }
  const auto clean = SanitizePhase(MakePacket(csi), band);
  for (std::size_t k = 0; k < band.NumSubcarriers(); ++k) {
    EXPECT_NEAR(std::arg(clean.csi.At(0, k)), 0.0, 1e-6);
  }
}

TEST(Sanitize, PreservesAmplitudes) {
  const auto band = wifi::BandPlan::Intel5300Channel11();
  Rng rng(3);
  linalg::CMatrix csi(2, band.NumSubcarriers());
  for (std::size_t m = 0; m < 2; ++m) {
    for (std::size_t k = 0; k < band.NumSubcarriers(); ++k) {
      csi.At(m, k) = std::polar(rng.Uniform(0.1, 2.0), rng.Uniform(-3.0, 3.0));
    }
  }
  const auto packet = MakePacket(csi);
  const auto clean = SanitizePhase(packet, band);
  for (std::size_t m = 0; m < 2; ++m) {
    for (std::size_t k = 0; k < band.NumSubcarriers(); ++k) {
      EXPECT_NEAR(std::abs(clean.csi.At(m, k)), std::abs(csi.At(m, k)),
                  1e-12);
    }
  }
}

TEST(Sanitize, PreservesInterAntennaPhase) {
  // The correction must be common-mode so MUSIC's inter-antenna phase
  // relations survive: synthesize a 30-degree plane wave, add common phase
  // + STO, sanitize, and check antenna-pair phase differences are intact.
  const auto band = wifi::BandPlan::Intel5300Channel11();
  const auto array = wifi::UniformLinearArray::HalfWavelength3(0.0);

  propagation::Path p;
  p.vertices = {{0, 0}, {3, 0}};
  p.length_m = 3.0;
  p.gain_at_center = 1.0;
  p.arrival_direction_rad = 2.0;  // arbitrary oblique arrival

  linalg::CMatrix csi = wifi::SynthesizeCfr({p}, band, array);
  std::vector<double> before(band.NumSubcarriers());
  for (std::size_t k = 0; k < band.NumSubcarriers(); ++k) {
    before[k] = std::arg(csi.At(1, k) * std::conj(csi.At(0, k)));
  }

  wifi::NoiseModel model;
  model.snr_db = 300.0;
  model.random_common_phase = true;
  model.sto_range_s = 40e-9;
  model.gain_drift_db = 0.0;
  Rng rng(11);
  wifi::ApplyNoise(csi, band.AllOffsetsHz(), model, rng);

  const auto clean = SanitizePhase(MakePacket(csi), band);
  for (std::size_t k = 0; k < band.NumSubcarriers(); ++k) {
    const double after =
        std::arg(clean.csi.At(1, k) * std::conj(clean.csi.At(0, k)));
    EXPECT_NEAR(std::abs(std::polar(1.0, after) - std::polar(1.0, before[k])),
                0.0, 1e-6);
  }
}

TEST(Sanitize, CentersDominantTapNearZeroDelay) {
  // After sanitization the LOS energy lands at (near) zero delay, making
  // DominantTapPower meaningful per packet — the property Eq. 10 relies on.
  const auto band = wifi::BandPlan::Intel5300Channel11();
  propagation::Path p;
  p.vertices = {{0, 0}, {4, 0}};
  p.length_m = 4.0;
  p.gain_at_center = 1.0;
  linalg::CMatrix csi(1, band.NumSubcarriers());
  for (std::size_t k = 0; k < band.NumSubcarriers(); ++k) {
    csi.At(0, k) = p.CoefficientAt(band.FrequencyHz(k));
  }
  const auto clean = SanitizePhase(MakePacket(csi), band);
  // All phases equal after de-sloping a single path -> the complex mean is
  // fully coherent: |mean of H_k| == mean of |H_k| (amplitudes still carry
  // the physical 1/f tilt, so compare against the amplitude mean).
  Complex mean(0, 0);
  double amp_mean = 0.0;
  for (std::size_t k = 0; k < band.NumSubcarriers(); ++k) {
    mean += clean.csi.At(0, k);
    amp_mean += std::abs(clean.csi.At(0, k));
  }
  mean /= 30.0;
  amp_mean /= 30.0;
  EXPECT_NEAR(std::abs(mean), amp_mean, 1e-6);
}

TEST(Sanitize, SessionVariantMatchesPerPacket) {
  const auto band = wifi::BandPlan::Intel5300Channel11();
  Rng rng(17);
  std::vector<wifi::CsiPacket> session;
  for (int i = 0; i < 3; ++i) {
    linalg::CMatrix csi(1, band.NumSubcarriers());
    for (std::size_t k = 0; k < band.NumSubcarriers(); ++k) {
      csi.At(0, k) = std::polar(rng.Uniform(0.5, 1.5), rng.Uniform(-3, 3));
    }
    session.push_back(MakePacket(csi));
  }
  const auto cleaned = SanitizePhase(session, band);
  ASSERT_EQ(cleaned.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto one = SanitizePhase(session[i], band);
    for (std::size_t k = 0; k < band.NumSubcarriers(); ++k) {
      EXPECT_EQ(cleaned[i].csi.At(0, k), one.csi.At(0, k));
    }
  }
}

// The fit as the generic least-squares pipeline computes it: the same
// antenna-summed kernel atan2 and unwrap, then dsp::FitLinear.
dsp::LinearFit ReferenceFit(const wifi::CsiPacket& packet,
                            const wifi::BandPlan& band) {
  const std::size_t num_sc = packet.NumSubcarriers();
  std::vector<double> re(num_sc), im(num_sc), phase(num_sc), unwrapped(num_sc);
  std::vector<double> offsets(num_sc);
  for (std::size_t k = 0; k < num_sc; ++k) {
    Complex acc(0.0, 0.0);
    for (std::size_t m = 0; m < packet.NumAntennas(); ++m) {
      acc += packet.csi.At(m, k);
    }
    re[k] = acc.real();
    im[k] = acc.imag();
    offsets[k] = band.OffsetHz(k);
  }
  kernels::Atan2(im.data(), re.data(), num_sc, phase.data());
  UnwrapPhaseInto(phase, unwrapped);
  return dsp::FitLinear(offsets, unwrapped);
}

// Random CSI with a common phase, an STO slope and per-cell phase noise
// (or, every fourth packet, fully random phases).
wifi::CsiPacket RandomPacket(Rng& rng, std::size_t antennas,
                             const wifi::BandPlan& band, std::size_t i) {
  linalg::CMatrix csi(antennas, band.NumSubcarriers());
  const double common = rng.Uniform(-kPi, kPi);
  const double sto = rng.Uniform(-80e-9, 80e-9);
  for (std::size_t m = 0; m < antennas; ++m) {
    for (std::size_t k = 0; k < band.NumSubcarriers(); ++k) {
      const double phase =
          i % 4 == 3 ? rng.Uniform(-kPi, kPi)
                     : common - 2.0 * kPi * band.OffsetHz(k) * sto +
                           rng.Uniform(-0.3, 0.3);
      csi.At(m, k) = std::polar(rng.Uniform(0.05, 2.0), phase);
    }
  }
  wifi::CsiPacket packet = MakePacket(csi);
  packet.timestamp_s = 0.02 * static_cast<double>(i);
  packet.rssi_db = rng.Uniform(-60.0, -30.0);
  packet.sequence = i;
  return packet;
}

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// The closed-form fit reproduces dsp::FitLinear bit for bit, on both
// kernel backends, with one scratch carried across band changes (the
// cached sums must follow the band fingerprint). The bands cover a
// symmetric plan (sum x == 0: no pivot swap, zero elimination factor) and
// asymmetric ones (pivot swap).
TEST(Sanitize, ClosedFormFitMatchesDspFitLinearBitwise) {
  std::vector<int> symmetric, asymmetric;
  for (int i = -15; i <= 15; ++i) {
    if (i != 0) symmetric.push_back(i);
  }
  for (int i = 0; i < 20; ++i) asymmetric.push_back(3 * i - 7);
  const wifi::BandPlan bands[] = {
      wifi::BandPlan::Intel5300Channel11(),
      wifi::BandPlan(2.437e9, symmetric, 312.5e3),
      wifi::BandPlan::Intel5300Channel(3),
      wifi::BandPlan(5.18e9, asymmetric, 625e3),
  };
  for (auto backend : {kernels::Backend::kScalar, kernels::Backend::kAvx2}) {
    if (!kernels::BackendAvailable(backend)) continue;
    kernels::SetBackend(backend);
    Rng rng(2024);
    SanitizeScratch scratch;
    std::size_t checked = 0;
    for (std::size_t i = 0; i < 1200; ++i) {
      // The band changes every 50 packets, mid-stream on one scratch.
      const auto& band = bands[(i / 50) % std::size(bands)];
      const auto packet = RandomPacket(rng, 1 + i % 3, band, i);
      const dsp::LinearFit want = ReferenceFit(packet, band);
      const PhaseFit got = FitLinearPhase(packet, band, scratch);
      ASSERT_EQ(Bits(got.offset_rad), Bits(want.intercept))
          << kernels::ToString(backend) << " packet " << i;
      ASSERT_EQ(Bits(got.slope_rad_per_hz), Bits(want.slope))
          << kernels::ToString(backend) << " packet " << i;
      ++checked;
    }
    EXPECT_EQ(checked, 1200u);
  }
  kernels::ResetBackend();
}

// A singular design still throws NumericalError, exactly where
// dsp::FitLinear does: every subcarrier at one offset.
TEST(Sanitize, SingularDesignStillThrows) {
  Rng rng(8);
  for (int index : {0, 5}) {
    const wifi::BandPlan band(2.412e9, {index, index, index, index}, 1.0);
    const auto packet = RandomPacket(rng, 2, band, 0);
    EXPECT_THROW(ReferenceFit(packet, band), NumericalError);
    SanitizeScratch scratch;
    EXPECT_THROW(FitLinearPhase(packet, band, scratch), NumericalError);
    wifi::CsiPacket out;
    EXPECT_THROW(SanitizePhaseInto(packet, band, out, scratch),
                 NumericalError);
  }
}

// SanitizePhaseInto writes the header and every CSI cell itself: a slot
// holding another packet (of the same or another shape) ends up equal to
// a freshly sanitized copy.
TEST(Sanitize, IntoReusedSlotMatchesFreshCopy) {
  const auto band = wifi::BandPlan::Intel5300Channel11();
  Rng rng(99);
  SanitizeScratch scratch;
  wifi::CsiPacket slot;
  for (std::size_t i = 0; i < 12; ++i) {
    const auto packet = RandomPacket(rng, 1 + (i / 2) % 3, band, i + 1);
    const auto fresh = SanitizePhase(packet, band);
    SanitizePhaseInto(packet, band, slot, scratch);
    EXPECT_EQ(slot.timestamp_s, packet.timestamp_s);
    EXPECT_EQ(slot.rssi_db, packet.rssi_db);
    EXPECT_EQ(slot.sequence, packet.sequence);
    ASSERT_EQ(slot.NumAntennas(), packet.NumAntennas());
    ASSERT_EQ(slot.NumSubcarriers(), packet.NumSubcarriers());
    for (std::size_t m = 0; m < packet.NumAntennas(); ++m) {
      for (std::size_t k = 0; k < band.NumSubcarriers(); ++k) {
        EXPECT_EQ(slot.csi.At(m, k), fresh.csi.At(m, k));
      }
    }
  }
}

}  // namespace
}  // namespace mulink::core
