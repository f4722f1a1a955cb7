// CSI phase sanitization, following Sen et al., MobiSys'12 (paper ref [26]).
//
// Commodity NICs stamp every packet with a random common phase (CFO/PLL) and
// a random linear phase slope across subcarriers (sampling time offset).
// Sanitization removes both by fitting a line to the unwrapped cross-
// subcarrier phase and subtracting it. The *same* correction is applied to
// every RX antenna — they share an oscillator — so inter-antenna phase
// relations, which MUSIC needs, are preserved.
#pragma once

#include <span>
#include <vector>

#include "kernels/aligned.h"
#include "wifi/band.h"
#include "wifi/csi.h"

namespace mulink::core {

// Linear phase model fitted during sanitization: phase ~ offset + slope * f_off.
struct PhaseFit {
  double offset_rad = 0.0;
  double slope_rad_per_hz = 0.0;
};

// Reusable buffers for the per-packet phase fit; grows on first use. The
// aligned buffers are the SoA lanes the kernel-layer trig maps
// (kernels::Atan2 / kernels::SinCos / kernels::RotateRows) consume.
struct SanitizeScratch {
  std::vector<double> avg_phase;
  std::vector<double> unwrapped;
  // Subcarrier baseband offsets, cached against the band fingerprint below
  // (BandPlan::OffsetHz is an out-of-line call; two full sweeps per packet
  // were measurable at the ingest cadence).
  std::vector<double> offsets;
  // The phase fit's packet-independent normal-equation sums over `offsets`
  // (sum x and sum x^2, in index order), cached with them.
  double offsets_sum = 0.0;
  double offsets_sum_sq = 0.0;
  double band_center_hz = 0.0;
  double band_spacing_hz = 0.0;
  std::vector<int> band_indices;
  kernels::AlignedBuffer sum_re;       // antenna-summed CSI, split complex
  kernels::AlignedBuffer sum_im;
  kernels::AlignedBuffer corrections;  // -(offset + slope * f_off) per k
  kernels::AlignedBuffer rot_cos;
  kernels::AlignedBuffer rot_sin;
};

// Unwrap a phase sequence (adjacent jumps > pi are folded).
std::vector<double> UnwrapPhase(const std::vector<double>& phases);

// Allocation-free variant: out.size() must equal phases.size().
void UnwrapPhaseInto(std::span<const double> phases, std::span<double> out);

// Fit the linear phase model to the antenna-averaged unwrapped CSI phase.
// Ordinary least squares, bit-identical to dsp::FitLinear over the same
// points (its normal equations in closed form; throws NumericalError on a
// singular design, as FitLinear does).
PhaseFit FitLinearPhase(const wifi::CsiPacket& packet,
                        const wifi::BandPlan& band);
PhaseFit FitLinearPhase(const wifi::CsiPacket& packet,
                        const wifi::BandPlan& band, SanitizeScratch& scratch);

// Remove the fitted common phase and STO slope from all antennas.
wifi::CsiPacket SanitizePhase(const wifi::CsiPacket& packet,
                              const wifi::BandPlan& band);

// Scratch variant writing into `out`; no heap traffic once `out` and the
// scratch have warmed up to the packet shape. `out` takes the packet's
// timestamp, RSSI, sequence and shape; every CSI cell is written by the
// rotation.
void SanitizePhaseInto(const wifi::CsiPacket& packet,
                       const wifi::BandPlan& band, wifi::CsiPacket& out,
                       SanitizeScratch& scratch);

// Convenience: sanitize a whole capture session.
std::vector<wifi::CsiPacket> SanitizePhase(
    const std::vector<wifi::CsiPacket>& packets, const wifi::BandPlan& band);

// Scratch variant over a window of packets; `out` is resized to match.
void SanitizePhaseInto(std::span<const wifi::CsiPacket> packets,
                       const wifi::BandPlan& band,
                       std::vector<wifi::CsiPacket>& out,
                       SanitizeScratch& scratch);

}  // namespace mulink::core
