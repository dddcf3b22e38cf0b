#include "obs/recorder.hpp"

#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

namespace wehey::obs {

namespace {

thread_local Recorder* t_current = nullptr;

bool env_flag(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != 0 && std::string(v) != "0";
}

}  // namespace

void Recorder::absorb(Recorder&& c, const std::string& track) {
  if (metrics_on_) metrics_.merge(c.metrics_);
  if (trace_on_) {
    if (!track.empty() && !c.timeline_.empty()) {
      c.timeline_.name_track(0, track);
    }
    timeline_.absorb(std::move(c.timeline_));
  }
}

Recorder* Recorder::current() { return t_current; }

ScopedRecorder::ScopedRecorder(Recorder* r) : prev_(t_current) {
  t_current = r;
}

ScopedRecorder::~ScopedRecorder() { t_current = prev_; }

std::string trace_csv_path(const std::string& trace_path) {
  const std::string suffix = ".json";
  if (trace_path.size() > suffix.size() &&
      trace_path.compare(trace_path.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
    return trace_path.substr(0, trace_path.size() - suffix.size()) + ".csv";
  }
  return trace_path + ".csv";
}

namespace {

/// The run-wide recorder the environment asks for (null when observation
/// is off); sets `trace_path` when tracing.
std::unique_ptr<Recorder> recorder_from_env(std::string& trace_path) {
  const char* trace = std::getenv("WEHEY_TRACE");
  const bool trace_on = trace != nullptr && trace[0] != 0;
  const bool metrics_on = env_flag("WEHEY_METRICS") || trace_on ||
                          env_flag("WEHEY_REPORT") ||
                          env_flag("WEHEY_REPORT_DIR");
  if (!metrics_on) return nullptr;
  auto recorder = std::make_unique<Recorder>(metrics_on, trace_on);
  if (trace_on) {
    trace_path = trace;
    // Bound the run-level timeline buffer; completed events spill to
    // "<trace>.chunkNNN" and re-merge when the trace is written. Unset/0
    // keeps the historical everything-in-memory behaviour. Per-trial
    // child timelines stay in memory either way (they are small and
    // absorb in index order).
    if (const char* buf = std::getenv("WEHEY_TRACE_BUFFER_EVENTS")) {
      const long n = std::strtol(buf, nullptr, 10);
      if (n > 0) {
        recorder->timeline().configure_spill(static_cast<std::size_t>(n),
                                             trace_path);
      }
    }
  }
  return recorder;
}

/// Chrome JSON at `path`, CSV at its sibling. False on I/O error.
bool write_trace(const Timeline& timeline, const std::string& path) {
  std::FILE* json = std::fopen(path.c_str(), "w");
  if (json == nullptr) return false;
  timeline.write_chrome_json(json);
  std::fclose(json);
  std::FILE* csv = std::fopen(trace_csv_path(path).c_str(), "w");
  if (csv == nullptr) return false;
  timeline.write_csv(csv);
  std::fclose(csv);
  return true;
}

}  // namespace

ObservedSweep::ObservedSweep(std::string run_name,
                             const std::string& checkpoint_path)
    : recorder_(recorder_from_env(trace_path_)),
      bind_(recorder_.get()),
      mode_(report_mode_from_env()),
      aggregator_(run_name),
      meter_(run_name),
      wall_start_(std::chrono::steady_clock::now()) {
  report_.run = std::move(run_name);
  const char* dir = std::getenv("WEHEY_REPORT_DIR");
  if (dir != nullptr && mode_ != ReportMode::kSweep) run_dir_ = dir;
  // Engine runtime telemetry (WEHEY_RUNTIME_REPORT): wall-clock profiler
  // sidecar, deliberately separate from the deterministic report files.
  runtime::enable_from_env();
  if (checkpoint_path.empty()) return;
  // An existing journal means this sweep is a resume. A journal the loader
  // rejects is left untouched: appending behind its bad line would make
  // every later resume stop there and silently re-run everything.
  std::string error;
  if (!CheckpointJournal::load(checkpoint_path, journal_, &error)) {
    std::fprintf(stderr, "checkpoint: %s\n", error.c_str());
    std::exit(1);
  }
  if (!checkpoint_.open(checkpoint_path, aggregator_.sweep_name())) {
    std::fprintf(stderr, "checkpoint: cannot open %s\n",
                 checkpoint_path.c_str());
    std::exit(1);
  }
  if (!journal_.empty()) {
    std::fprintf(stderr, "checkpoint: resuming from %s (%zu completed runs)\n",
                 checkpoint_path.c_str(), journal_.size());
  }
}

void ObservedSweep::write_run_file(const std::string& run,
                                   const std::string& json) const {
  if (run_dir_.empty()) return;
  const std::string path = run_dir_ + "/" + run + ".report.json";
  if (!write_report_file(path, json)) {
    std::fprintf(stderr, "report: FAILED to write %s\n", path.c_str());
  }
}

void ObservedSweep::add_run(const RunReport& run,
                            const MetricsRegistry* metrics) {
  aggregator_.add_run(run, metrics);
  for (const auto& [kind, count] : run.injection) {
    report_.injection[kind] += count;
  }
  meter_.note_run(run.verdict, run.decision.has_margin, run.decision.margin);
  const std::uint64_t index = next_run_index_++;
  if (!checkpoint_.is_open() && run_dir_.empty()) return;
  const std::string json = run.to_json(metrics);
  if (checkpoint_.is_open()) {
    checkpoint_.append({run.run, run.cell, run.seed, index, json});
  }
  write_run_file(run.run, json);
}

JsonValue ObservedSweep::absorb_cached(const CheckpointEntry& entry) {
  JsonValue doc;
  std::string error;
  if (!json_parse(entry.report_json, doc, &error) ||
      !aggregator_.add_run_json(doc, &error)) {
    std::fprintf(stderr, "checkpoint: cannot absorb %s: %s\n",
                 entry.run.c_str(), error.c_str());
    return JsonValue{};
  }
  // The document's per-kind counts, minus the derived "total".
  if (const JsonValue* injection = doc.find("injection")) {
    for (const auto& [kind, count] : injection->object) {
      if (kind != "total") {
        report_.injection[kind] += static_cast<int>(count.num_or(0.0));
      }
    }
  }
  meter_.note_resumed();
  ++next_run_index_;
  write_run_file(entry.run, entry.report_json);
  return doc;
}

ObservedSweep::~ObservedSweep() {
  if (!trace_path_.empty()) {
    if (write_trace(recorder_->timeline(), trace_path_)) {
      std::fprintf(stderr, "trace: %s (+ %s)\n", trace_path_.c_str(),
                   trace_csv_path(trace_path_).c_str());
    } else {
      std::fprintf(stderr, "trace: FAILED to write %s\n", trace_path_.c_str());
    }
  }
  if (!report_.run.empty()) {
    const MetricsRegistry* metrics =
        recorder_ != nullptr ? &recorder_->metrics() : nullptr;
    // Profile the report if nothing filled it explicitly: from the
    // finalized timeline when tracing (every (pid, tid) pair is its own
    // track), else from the recorded stages (one track each —
    // conservative: no cross-stage nesting assumed).
    if (report_.profile.empty()) {
      if (!trace_path_.empty()) {
        report_.profile = profile_from_spans(
            profile_spans_from_timeline(recorder_->timeline()));
      } else if (!report_.stages.empty()) {
        std::vector<ProfileSpan> spans;
        for (std::size_t i = 0; i < report_.stages.size(); ++i) {
          const auto& s = report_.stages[i];
          spans.push_back({static_cast<std::int64_t>(i), s.name, s.sim_start,
                           s.sim_end, s.wall_ms});
        }
        report_.profile = profile_from_spans(std::move(spans));
      }
    }
    if (report_wall_times()) {
      report_.values["wall_ms_total"] =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - wall_start_)
              .count();
    }
    if (mode_ != ReportMode::kSweep) {
      const std::string path = report_path_from_env(report_.run);
      if (!path.empty()) {
        write_artifact("report", path, report_.to_json(metrics));
      }
    }
    if (mode_ != ReportMode::kPerRun) {
      const std::string path = sweep_path_from_env(report_.run);
      if (!path.empty()) {
        // A sweep of zero absorbed runs (a single-run front end under
        // sweep mode) aggregates its own report, so the file is never an
        // empty shell.
        if (aggregator_.runs() == 0) aggregator_.add_run(report_, metrics);
        write_artifact("sweep report", path, aggregator_.to_json(),
                       " (" + std::to_string(aggregator_.runs()) + " runs)");
      }
    }
  }
  // Final wall-clock summary (always, when runs were absorbed) and the
  // runtime-telemetry sidecar. Both live outside the deterministic report
  // files: the summary goes to stderr, the sidecar to its own
  // WEHEY_RUNTIME_REPORT path.
  meter_.finish();
  runtime::write_runtime_report_from_env(aggregator_.sweep_name());
}

}  // namespace wehey::obs
