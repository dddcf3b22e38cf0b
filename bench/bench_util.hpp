// Shared helpers for the per-table/per-figure reproduction benches.
//
// Every bench binary is runnable with no arguments and prints the same
// rows/series the paper reports. Two environment variables control scale
// (see experiments/params.hpp): WEHEY_FULL=1 for the paper-scale grid,
// WEHEY_RUNS_PER_CONFIG=N to override repetitions.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
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
#include "obs/aggregate.hpp"
#include "obs/checkpoint.hpp"
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

/// The shipped fault plan named by WEHEY_FAULT_PLAN (seeded from
/// WEHEY_CHAOS_SEED, default 1), or nullopt when the variable is unset.
/// Lets any bench grid run under fault injection without a rebuild.
inline std::optional<faults::FaultPlan> fault_plan_from_env() {
  const char* name = std::getenv("WEHEY_FAULT_PLAN");
  if (name == nullptr || name[0] == 0) return std::nullopt;
  std::uint64_t seed = 1;
  if (const char* s = std::getenv("WEHEY_CHAOS_SEED")) {
    const long long parsed = std::atoll(s);
    if (parsed > 0) seed = static_cast<std::uint64_t>(parsed);
  }
  return faults::shipped_plan(name, seed);
}

/// The sweep-level observability harness every bench binary opens first
/// thing: reads the obs environment (WEHEY_TRACE / WEHEY_METRICS /
/// WEHEY_REPORT / WEHEY_REPORT_DIR / WEHEY_REPORT_MODE), binds a
/// run-wide obs::Recorder to the main thread for the binary's lifetime,
/// and on destruction writes the trace artifacts and the report(s). With
/// none of the variables set this is a few getenv calls and nothing
/// else.
///
/// Grid benches additionally feed every run of the sweep through
/// add_run(): the runs fold into a SweepAggregator, and
/// WEHEY_REPORT_MODE picks what lands on disk —
///   per-run (default): the binary's own RunReport, plus one file per
///                      absorbed run under WEHEY_REPORT_DIR;
///   sweep:             only the aggregated wehey.sweep_report.v1;
///   both:              everything.
class ObservedSweep {
 public:
  explicit ObservedSweep(std::string run_name)
      : obs_(obs::RunObservation::from_env()),
        bind_(obs_.recorder.get()),
        mode_(obs::report_mode_from_env()),
        aggregator_(run_name),
        meter_(run_name),
        wall_start_(std::chrono::steady_clock::now()) {
    report_.run = std::move(run_name);
    // Engine runtime telemetry (WEHEY_RUNTIME_REPORT): wall-clock profiler
    // sidecar, deliberately separate from the deterministic report files.
    obs::runtime::enable_from_env();
    // Checkpointing (WEHEY_CHECKPOINT=<journal path>): an existing
    // journal means this sweep is a resume — completed runs are served
    // from it via cached()/absorb_cached() and only the rest execute.
    const std::string ckpt = obs::checkpoint_path_from_env();
    if (!ckpt.empty()) {
      std::string error;
      if (!obs::CheckpointJournal::load(ckpt, journal_, &error)) {
        std::fprintf(stderr, "checkpoint: %s (ignoring journal)\n",
                     error.c_str());
        journal_ = obs::CheckpointJournal{};
      }
      if (!checkpoint_.open(ckpt, report_.run)) {
        std::fprintf(stderr, "checkpoint: FAILED to open %s\n",
                     ckpt.c_str());
      } else if (!journal_.empty()) {
        std::printf("checkpoint: resuming from %s (%zu completed runs)\n",
                    ckpt.c_str(), journal_.size());
      }
    }
  }
  ObservedSweep(const ObservedSweep&) = delete;
  ObservedSweep& operator=(const ObservedSweep&) = delete;

  bool enabled() const { return obs_.enabled(); }
  obs::RunReport& report() { return report_; }
  obs::Recorder* recorder() { return obs_.recorder.get(); }
  obs::ReportMode mode() const { return mode_; }
  obs::SweepAggregator& aggregator() { return aggregator_; }

  /// Announce how many runs the sweep will absorb in total, enabling the
  /// progress meter's ETA (WEHEY_PROGRESS=plain|tty).
  void expect_runs(std::size_t total) { meter_.expect(total); }

  obs::ProgressMeter& progress() { return meter_; }

  /// Fold a session's / test's injector tallies into the report.
  void record_injection(const faults::InjectionStats& stats) {
    for (const auto& [kind, count] : stats.by_kind()) {
      report_.injection[kind] += count;
    }
  }

  /// Absorb one run of the sweep. In per-run / both modes the run's own
  /// report is also written as "<WEHEY_REPORT_DIR>/<run.run>.report.json"
  /// (run names must be unique within the sweep). Call in a
  /// deterministic order — the sweep file is byte-identical across
  /// absorb orders anyway, but the per-run files overwrite by name and
  /// the checkpoint journal records this order as the run index.
  void add_run(const obs::RunReport& run,
               const obs::MetricsRegistry* metrics) {
    aggregator_.add_run(run, metrics);
    meter_.note_run(run.verdict, run.decision.has_margin,
                    run.decision.margin);
    std::string json;
    if (checkpoint_.is_open()) {
      json = run.to_json(metrics);
      obs::CheckpointEntry entry;
      entry.run = run.run;
      entry.cell = run.cell;
      entry.seed = run.seed;
      entry.index = next_run_index_;
      entry.report_json = json;
      checkpoint_.append(entry);
    }
    ++next_run_index_;
    if (mode_ == obs::ReportMode::kSweep) return;
    const char* dir = std::getenv("WEHEY_REPORT_DIR");
    if (dir == nullptr || dir[0] == 0) return;
    const std::string path =
        std::string(dir) + "/" + run.run + ".report.json";
    if (json.empty()) json = run.to_json(metrics);
    if (!obs::write_report_file(path, json)) {
      std::fprintf(stderr, "report: FAILED to write %s\n", path.c_str());
    }
  }

  /// The journaled entry of a completed run from the journal this sweep
  /// resumed from, or nullptr when the run must (re-)execute.
  const obs::CheckpointEntry* cached(const std::string& run_id) const {
    return journal_.find(run_id);
  }

  /// Re-absorb a journaled run instead of executing it. The embedded
  /// report's exact bytes go through the aggregator's offline path
  /// (bit-equal to add_run) and — in per-run / both modes — back into the
  /// per-run report file, so a resumed sweep's artifacts are
  /// byte-identical to an uninterrupted run's. Returns the parsed report
  /// document (Type::Null on a malformed entry) so callers can rebuild
  /// their own tallies from it.
  obs::JsonValue absorb_cached(const obs::CheckpointEntry& entry) {
    obs::JsonValue doc;
    std::string error;
    if (!obs::json_parse(entry.report_json, doc, &error)) {
      std::fprintf(stderr, "checkpoint: bad journaled report for %s: %s\n",
                   entry.run.c_str(), error.c_str());
      return obs::JsonValue{};
    }
    if (!aggregator_.add_run_json(doc, &error)) {
      std::fprintf(stderr, "checkpoint: cannot absorb %s: %s\n",
                   entry.run.c_str(), error.c_str());
      return obs::JsonValue{};
    }
    meter_.note_resumed();
    ++next_run_index_;
    if (mode_ != obs::ReportMode::kSweep) {
      const char* dir = std::getenv("WEHEY_REPORT_DIR");
      if (dir != nullptr && dir[0] != 0) {
        const std::string path =
            std::string(dir) + "/" + entry.run + ".report.json";
        if (!obs::write_report_file(path, entry.report_json)) {
          std::fprintf(stderr, "report: FAILED to write %s\n", path.c_str());
        }
      }
    }
    return doc;
  }

  /// record_injection for a journaled run: fold the report document's
  /// per-kind injection counts (minus the derived "total") into the
  /// binary's own report.
  void record_injection_json(const obs::JsonValue& doc) {
    const obs::JsonValue* injection = doc.find("injection");
    if (injection == nullptr ||
        injection->type != obs::JsonValue::Type::Object) {
      return;
    }
    for (const auto& [kind, count] : injection->object) {
      if (kind == "total") continue;
      report_.injection[kind] += static_cast<int>(count.num_or(0.0));
    }
  }

  std::size_t runs() const { return aggregator_.runs(); }

  ~ObservedSweep() {
    if (obs_.enabled() && !obs_.trace_path.empty()) {
      if (obs_.write_trace()) {
        std::printf("trace: %s (+ %s)\n", obs_.trace_path.c_str(),
                    obs::RunObservation::csv_path(obs_.trace_path).c_str());
      } else {
        std::fprintf(stderr, "trace: FAILED to write %s\n",
                     obs_.trace_path.c_str());
      }
    }
    const obs::MetricsRegistry* metrics =
        obs_.recorder != nullptr ? &obs_.recorder->metrics() : nullptr;
    // Profile the binary's own report if nothing filled it explicitly:
    // from the finalized timeline when tracing (every (pid, tid) pair is
    // its own track), else from the recorded stages (one track each —
    // conservative: no cross-stage nesting assumed).
    if (report_.profile.empty()) {
      if (obs_.recorder != nullptr && obs_.recorder->trace_on()) {
        report_.profile = obs::profile_from_spans(
            obs::profile_spans_from_timeline(obs_.recorder->timeline()));
      } else if (!report_.stages.empty()) {
        std::vector<obs::ProfileSpan> spans;
        for (std::size_t i = 0; i < report_.stages.size(); ++i) {
          const auto& s = report_.stages[i];
          spans.push_back({static_cast<std::int64_t>(i), s.name, s.sim_start,
                           s.sim_end, s.wall_ms});
        }
        report_.profile = obs::profile_from_spans(std::move(spans));
      }
    }
    if (obs::report_wall_times()) {
      report_.values["wall_ms_total"] =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - wall_start_)
              .count();
    }
    if (mode_ != obs::ReportMode::kSweep) {
      const std::string path = obs::report_path_from_env(report_.run);
      if (!path.empty()) {
        if (obs::write_report_file(path, report_.to_json(metrics))) {
          std::printf("report: %s\n", path.c_str());
        } else {
          std::fprintf(stderr, "report: FAILED to write %s\n", path.c_str());
        }
      }
    }
    if (mode_ != obs::ReportMode::kPerRun) {
      const std::string path = obs::sweep_path_from_env(report_.run);
      if (!path.empty()) {
        // A sweep of zero absorbed runs (a single-run binary under
        // sweep mode) aggregates its own report, so the file is never
        // an empty shell.
        if (aggregator_.runs() == 0) aggregator_.add_run(report_, metrics);
        if (obs::write_report_file(path, aggregator_.to_json())) {
          std::printf("sweep report: %s (%zu runs)\n", path.c_str(),
                      aggregator_.runs());
        } else {
          std::fprintf(stderr, "sweep report: FAILED to write %s\n",
                       path.c_str());
        }
      }
    }
    // Final wall-clock summary (always, when runs were absorbed) and the
    // runtime-telemetry sidecar. Both live outside the deterministic
    // report files: the summary goes to stderr, the sidecar to its own
    // WEHEY_RUNTIME_REPORT path.
    meter_.finish();
    obs::runtime::write_runtime_report_from_env(report_.run);
  }

 private:
  obs::RunObservation obs_;
  obs::ScopedRecorder bind_;
  obs::ReportMode mode_;
  obs::SweepAggregator aggregator_;
  obs::ProgressMeter meter_;  ///< live sweep progress (WEHEY_PROGRESS)
  obs::RunReport report_;
  obs::CheckpointJournal journal_;   ///< completed runs of a killed sweep
  obs::CheckpointWriter checkpoint_; ///< open iff WEHEY_CHECKPOINT is set
  std::uint64_t next_run_index_ = 0;
  std::chrono::steady_clock::time_point wall_start_;
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
