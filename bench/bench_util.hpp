// Shared helpers for the per-table/per-figure reproduction benches.
//
// Every bench binary is runnable with no arguments and prints the same
// rows/series the paper reports. Two environment variables control scale
// (see experiments/params.hpp): WEHEY_FULL=1 for the paper-scale grid,
// WEHEY_RUNS_PER_CONFIG=N to override repetitions. The benches reproduce
// results; what a run costs is measured in one place, perfbench/.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "obs/metrics.hpp"

#include "core/loss_correlation.hpp"
#include "core/tomography.hpp"
#include "experiments/params.hpp"
#include "experiments/scenario.hpp"
#include "faults/injector.hpp"
#include "faults/plan.hpp"
#include "obs/recorder.hpp"
#include "obs/report.hpp"

namespace wehey::bench {

inline void print_header(const std::string& id, const std::string& what) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", id.c_str(), what.c_str());
  const auto scale = experiments::run_scale();
  std::printf("mode: %s (runs/config=%zu, replay=%.0fs; set WEHEY_FULL=1 "
              "for the paper-scale grid)\n",
              scale.full ? "FULL" : "FAST", scale.runs_per_config,
              to_seconds(scale.replay_duration));
  std::printf("==============================================================\n");
}

/// Outcome of one FN/FP-style experiment (simultaneous phases only).
struct DetectorOutcome {
  bool wehe_detected = false;   ///< confirmation passed on both paths
  bool loss_trend = false;      ///< Alg. 1 verdict
  bool tomo_no_params = false;  ///< Alg. 4 verdict (baseline)
  double retx_rate = 0.0;       ///< p1 original-replay loss rate
  double queue_delay_ms = 0.0;  ///< p1 original-replay avg queueing delay
  double tput1_mbps = 0.0;
  /// Simulated durations of the two phases (replay + drain), for stage
  /// timings in per-trial reports.
  Time original_duration = 0;
  Time inverted_duration = 0;
  /// Summed injector tallies of the two simultaneous phases (all zero
  /// without a fault plan).
  faults::InjectionStats injection;
};

/// Run the simultaneous phases of `cfg` and evaluate both the final
/// detector and the classic-tomography baseline on the same measurements.
inline DetectorOutcome run_detectors(const experiments::ScenarioConfig& cfg) {
  DetectorOutcome out;
  const auto sim = experiments::run_simultaneous_experiment(cfg);
  out.wehe_detected = sim.differentiation_confirmed;
  out.retx_rate = sim.original.p1.retx_rate;
  out.queue_delay_ms = sim.original.p1.avg_queuing_delay_ms;
  out.tput1_mbps = sim.original.p1.avg_throughput_bps / 1e6;
  const Time rtt = milliseconds(std::max(cfg.rtt1_ms, cfg.rtt2_ms));
  out.loss_trend = core::loss_trend_correlation(sim.original.p1.meas,
                                                sim.original.p2.meas, rtt)
                       .common_bottleneck;
  out.tomo_no_params =
      core::bin_loss_tomo_no_params(sim.original.p1.meas,
                                    sim.original.p2.meas, rtt)
          .common_bottleneck;
  out.original_duration = sim.original.sim_duration;
  out.inverted_duration = sim.inverted.sim_duration;
  out.injection = sim.original.injection;
  out.injection += sim.inverted.injection;
  return out;
}

struct FnStats {
  int experiments = 0;       ///< experiments where WeHe detected
  int skipped = 0;           ///< WeHe did not detect (excluded, as §6.2)
  int fn_loss_trend = 0;
  int fn_tomo = 0;

  void add(const DetectorOutcome& o) {
    if (!o.wehe_detected) {
      ++skipped;
      return;
    }
    ++experiments;
    fn_loss_trend += !o.loss_trend;
    fn_tomo += !o.tomo_no_params;
  }
  double fn_rate() const {
    return experiments > 0 ? 100.0 * fn_loss_trend / experiments : 0.0;
  }
  double fn_rate_tomo() const {
    return experiments > 0 ? 100.0 * fn_tomo / experiments : 0.0;
  }
};

struct FpStats {
  int experiments = 0;
  int fp_loss_trend = 0;

  void add(const DetectorOutcome& o) {
    ++experiments;
    fp_loss_trend += o.loss_trend;
  }
  double fp_rate() const {
    return experiments > 0 ? 100.0 * fp_loss_trend / experiments : 0.0;
  }
};

/// Open "<WEHEY_CSV_DIR>/<name>.csv" for plot-ready artifact output, or
/// null when the environment variable is unset.
inline std::unique_ptr<CsvWriter> open_csv(const std::string& name) {
  const char* dir = std::getenv("WEHEY_CSV_DIR");
  if (dir == nullptr || dir[0] == 0) return nullptr;
  auto writer =
      std::make_unique<CsvWriter>(std::string(dir) + "/" + name + ".csv");
  if (!writer->ok()) return nullptr;
  return writer;
}

}  // namespace wehey::bench
