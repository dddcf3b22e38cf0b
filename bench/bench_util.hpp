// Shared helpers for the per-table/per-figure reproduction benches.
//
// Every bench binary is runnable with no arguments and prints the same
// rows/series the paper reports. Two environment variables control scale
// (see experiments/params.hpp): WEHEY_FULL=1 for the paper-scale grid,
// WEHEY_RUNS_PER_CONFIG=N to override repetitions.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/csv.hpp"
#include "obs/inspect.hpp"
#include "obs/metrics.hpp"

#include "core/loss_correlation.hpp"
#include "core/tomography.hpp"
#include "experiments/params.hpp"
#include "experiments/scenario.hpp"
#include "faults/injector.hpp"
#include "faults/plan.hpp"
#include "obs/recorder.hpp"
#include "obs/report.hpp"
#include "obs/runtime.hpp"

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

// ------------------------------------------------------- BENCH_*.json I/O
//
// Several bench binaries persist their trajectory into one JSON file
// (default BENCH_parallel.json, override with WEHEY_BENCH_JSON), each
// owning a named top-level block. update_bench_block() re-reads the file
// and replaces only the caller's block, so bench_event_loop and
// bench_table1_wild (its "runtime" block) can run in any order without
// clobbering each other.

/// Terse JsonValue constructors for assembling bench blocks.
inline obs::JsonValue jnum(double v) {
  obs::JsonValue j;
  j.type = obs::JsonValue::Type::Number;
  j.number = v;
  return j;
}

inline obs::JsonValue jobj() {
  obs::JsonValue j;
  j.type = obs::JsonValue::Type::Object;
  return j;
}

inline obs::JsonValue jarr() {
  obs::JsonValue j;
  j.type = obs::JsonValue::Type::Array;
  return j;
}

/// Set `key` in object `o` (replacing an existing entry of that name).
inline void jset(obs::JsonValue& o, const std::string& key,
                 obs::JsonValue v) {
  for (auto& [k, existing] : o.object) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  o.object.emplace_back(key, std::move(v));
}

/// Serialize a JsonValue with 2-space indentation. Numbers go through
/// obs::json_number, so round-trips are value-stable.
inline void json_write(const obs::JsonValue& v, std::ostream& out,
                       int indent = 0) {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  const std::string pad1(static_cast<std::size_t>(indent + 1) * 2, ' ');
  switch (v.type) {
    case obs::JsonValue::Type::Null: out << "null"; return;
    case obs::JsonValue::Type::Bool:
      out << (v.boolean ? "true" : "false");
      return;
    case obs::JsonValue::Type::Number:
      out << obs::json_number(v.number);
      return;
    case obs::JsonValue::Type::String: {
      out << '"';
      for (const char c : v.str) {
        if (c == '"' || c == '\\') {
          out << '\\' << c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
      }
      out << '"';
      return;
    }
    case obs::JsonValue::Type::Array: {
      if (v.array.empty()) {
        out << "[]";
        return;
      }
      out << "[";
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        if (i > 0) out << ", ";
        json_write(v.array[i], out, indent + 1);
      }
      out << "]";
      return;
    }
    case obs::JsonValue::Type::Object: {
      if (v.object.empty()) {
        out << "{}";
        return;
      }
      out << "{\n";
      for (std::size_t i = 0; i < v.object.size(); ++i) {
        out << pad1 << '"' << v.object[i].first << "\": ";
        json_write(v.object[i].second, out, indent + 1);
        if (i + 1 < v.object.size()) out << ',';
        out << '\n';
      }
      out << pad << '}';
      return;
    }
  }
}

/// The trajectory file this process writes: WEHEY_BENCH_JSON or the
/// default BENCH_parallel.json.
inline std::string bench_json_path() {
  const char* env = std::getenv("WEHEY_BENCH_JSON");
  return env != nullptr && env[0] != 0 ? env : "BENCH_parallel.json";
}

/// Replace (or append) the top-level block `name` of the JSON object in
/// `path`, preserving every other block. An unreadable or malformed file
/// is restarted from an empty object.
inline bool update_bench_block(const std::string& path,
                               const std::string& name,
                               obs::JsonValue block) {
  obs::JsonValue doc = jobj();
  std::string text;
  if (obs::read_file(path, text)) {
    obs::JsonValue parsed;
    if (obs::json_parse(text, parsed) &&
        parsed.type == obs::JsonValue::Type::Object) {
      doc = std::move(parsed);
    }
  }
  jset(doc, name, std::move(block));
  std::ofstream out(path);
  if (!out) return false;
  json_write(doc, out);
  out << '\n';
  return out.good();
}

/// Replace (or append) `sub` inside the top-level object block `name`,
/// preserving the block's other sub-entries. Lets several binaries share
/// one top-level block (e.g. "runtime"."grid" from bench_event_loop and
/// "runtime"."table1_wild" from bench_table1_wild) without clobbering
/// each other.
inline bool update_bench_subblock(const std::string& path,
                                  const std::string& name,
                                  const std::string& sub,
                                  obs::JsonValue block) {
  obs::JsonValue doc = jobj();
  std::string text;
  if (obs::read_file(path, text)) {
    obs::JsonValue parsed;
    if (obs::json_parse(text, parsed) &&
        parsed.type == obs::JsonValue::Type::Object) {
      doc = std::move(parsed);
    }
  }
  obs::JsonValue* outer = nullptr;
  for (auto& [k, v] : doc.object) {
    if (k == name) {
      outer = &v;
      break;
    }
  }
  if (outer == nullptr) {
    doc.object.emplace_back(name, jobj());
    outer = &doc.object.back().second;
  } else if (outer->type != obs::JsonValue::Type::Object) {
    *outer = jobj();
  }
  jset(*outer, sub, std::move(block));
  std::ofstream out(path);
  if (!out) return false;
  json_write(doc, out);
  out << '\n';
  return out.good();
}

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
