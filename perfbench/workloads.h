// The three benchmark workloads and the per-layer probes they share.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/detector.h"
#include "core/engine.h"
#include "generate.h"
#include "harness.h"

namespace perfbench {

namespace core = mulink::core;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
};

// Span store of a traced run. A workload's own phase adds traced blocks only
// while the next one fits in kWorkloadSpanBudget, so that MeasureLayers,
// whose span count is fixed by the inputs (about 300k at most), always finds
// room in the kLayerSpanBudget after it.
inline constexpr std::size_t kWorkloadSpanBudget = 800000;
inline constexpr std::size_t kLayerSpanBudget = 400000;

// Each workload fills `report` with its end-to-end metrics (untraced run)
// or its per-layer metrics (traced run), and its correctness checks.
void RunFleetPaced(const RunOptions& options, SpanRecorder& spans, Report& report);
void RunFleetChurn(const RunOptions& options, SpanRecorder& spans, Report& report);
void RunSessionReplay(const RunOptions& options, SpanRecorder& spans, Report& report);

// ---- shared pieces --------------------------------------------------------

inline constexpr std::size_t kWindow = 25;
inline constexpr core::DetectionScheme kSchemes[] = {
    core::DetectionScheme::kBaseline,
    core::DetectionScheme::kSubcarrierWeighting,
    core::DetectionScheme::kSubcarrierAndPathWeighting,
    core::DetectionScheme::kVarianceMobile,
};
// Metric-name suffix of each scheme, in kSchemes order.
inline constexpr const char* kSchemeNames[] = {"baseline", "subcarrier",
                                               "combined", "variance"};

// A calibrated detector with the quiet-window scores its threshold was fit
// on (the HMM emission prior and the calibrator's quiet-score prior).
struct Calibrated {
  core::Detector detector;
  std::vector<double> empty_scores;
};

// Detector::Calibrate on the empty-room session, then CalibrateThreshold on
// its non-overlapping windows and Score(window, scratch) of each of them.
Calibrated CalibrateScheme(const std::vector<wifi::CsiPacket>& calibration,
                           const wifi::BandPlan& band,
                           const wifi::UniformLinearArray& array,
                           core::DetectionScheme scheme);

// Every per-layer metric name with its unit, at 0: a workload overwrites
// the layers it drives, and the rest stay 0 (the layer is not on its path).
void DeclarePerLayerMetrics(Report& report);

// Alternating pairs of one cost measured without and with some extra work
// (tracing, obs recording): the extra work's overhead in percent, set as
// `prefix` (median) and `prefix`.q1 / .q3.
void SetOverhead(Report& report, const std::string& prefix,
                 const std::vector<double>& plain, const std::vector<double>& treated);

// Bit-for-bit equality of two decisions.
bool SameDecision(const core::PresenceDecision& a, const core::PresenceDecision& b);

// Inputs of the single-thread layer probes: the workload's own frames, one
// stream per link, grouped by the calibration session their detector comes
// from, and the ingest configuration the workload's engine runs with.
struct LayerGroup {
  const std::vector<wifi::CsiPacket>* calibration = nullptr;
  const wifi::BandPlan* band = nullptr;
  const wifi::UniformLinearArray* array = nullptr;
  std::vector<std::vector<wifi::CsiPacket>> streams;
};

struct LayerInputs {
  std::vector<LayerGroup> groups;
  core::StreamingConfig stream;
  // Fleet links share one immutable detector and the engine's scratch;
  // otherwise each link owns its detector (adaptive calibration).
  bool shared_profile = true;
  // Feed the engine replay tick-major (one frame of every link in turn)
  // instead of link-major (each link's stream in one go).
  bool tick_major = true;
};

// Times the engine, nic, core-stage, kernel and obs layers through their
// public calls, recording spans, and sets the corresponding metrics.
void MeasureLayers(const LayerInputs& inputs, SpanRecorder& spans, Report& report);

}  // namespace perfbench
