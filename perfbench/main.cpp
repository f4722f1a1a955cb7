// mulink benchmark program.
//
//   mulink_perfbench --workload <fleet_paced|fleet_churn|session_replay>
//                    --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Prints the per-workload metric lines and an environment stamp, then as
// its last line one JSON object {"correct", "attempted", "failed",
// "metrics"}: end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1 (which also writes the recorded spans to --trace-out). Exits 1
// when a correctness check failed, 2 on a usage or environment error.
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "harness.h"
#include "kernels/kernels.h"
#include "obs/metrics.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

constexpr std::size_t kFleetThreads = 3;  // serve demux + 2 shard workers

int Usage(const std::string& problem) {
  std::cerr << "mulink_perfbench: " << problem << "\n"
            << "usage: mulink_perfbench --workload <fleet_paced|fleet_churn|"
               "session_replay> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <file>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (arg == "--trace-out") {
        trace_out = value;
      } else {
        return Usage("unknown option " + arg);
      }
    } catch (const std::exception&) {
      return Usage("malformed value for " + arg + ": " + value);
    }
  }
  if (options.seconds <= 0.0) return Usage("--seconds must be positive");

  EnvStamp env;
  env.nproc = AvailableCpus();
  env.backend = mulink::kernels::ToString(mulink::kernels::ActiveBackend());
  env.obs_compiled = mulink::obs::kEnabled;
  env.build_type = PERFBENCH_BUILD_TYPE;
  env.seed = options.seed;
  env.workload = options.workload;
  env.trace = options.trace;

  void (*run)(const RunOptions&, SpanRecorder&, Report&) = nullptr;
  if (options.workload == "fleet_paced") run = RunFleetPaced;
  if (options.workload == "fleet_churn") run = RunFleetChurn;
  if (options.workload == "session_replay") run = RunSessionReplay;
  if (run == nullptr) return Usage("unknown workload '" + options.workload + "'");
  if (run != RunSessionReplay && env.nproc < kFleetThreads) {
    std::cerr << "mulink_perfbench: " << options.workload << " runs "
              << kFleetThreads << " threads (serve demux + 2 shard workers) but only "
              << env.nproc << " CPU(s) are available; refusing to measure an "
              << "oversubscribed fleet\n";
    return 2;
  }

  Report report;
  if (options.trace) DeclarePerLayerMetrics(report);
  SpanRecorder spans(options.trace ? kWorkloadSpanBudget + kLayerSpanBudget : 0);
  try {
    run(options, spans, report);
  } catch (const std::exception& e) {
    std::cerr << "mulink_perfbench: " << options.workload << " failed: " << e.what() << "\n";
    return 1;
  }

  // A span past the store's capacity is lost, and a layer whose spans were
  // all lost would read 0 as if the workload did not drive it.
  if (options.trace) {
    report.Check("every span kept within the store's capacity", 1,
                 spans.dropped() > 0 ? 1 : 0);
  }
  if (options.trace && !trace_out.empty()) {
    std::ofstream out(trace_out);
    out << "# env " << env.Json() << "\n";
    spans.Write(out);
    if (!out) {
      std::cerr << "mulink_perfbench: cannot write spans to " << trace_out << "\n";
      return 2;
    }
    report.Note("spans: " + std::to_string(spans.spans().size()) + " written to " +
                trace_out + " (" + std::to_string(spans.dropped()) + " over capacity)");
  }
  for (const auto& line : report.notes) std::cout << line << "\n";
  std::cout << "env " << env.Json() << "\n";
  std::cout << report.ResultJson() << std::endl;
  return report.correct ? 0 : 1;
}
