// The observability entry point: a Recorder bundles one MetricsRegistry
// and one Timeline, and a thread-local *scope* makes the active recorder
// reachable from instrumented code anywhere in the stack without plumbing
// a pointer through every layer.
//
// Threading/determinism model:
//
//   * a Recorder is owned by one execution context at a time — no locks,
//     no atomics on the hot path;
//   * the parallel engine (parallel_map) gives every trial its own child
//     Recorder, bound around the trial body on whichever worker runs it,
//     and absorbs the children into the parent *in index order* after the
//     loop — so merged metrics and traces are bit-identical across
//     WEHEY_THREADS=1/4/16;
//   * when no recorder is bound (the default), every instrumentation hook
//     is a thread-local load + branch — near-zero cost.
//
// Run-level setup is ObservedSweep (below), the one harness every front
// end opens. Its recorder comes from the environment:
//   WEHEY_METRICS=1  — collect metrics (implied by the two below),
//   WEHEY_TRACE=path — also record a timeline, written as Chrome-trace
//                      JSON at `path` plus a CSV sibling;
//                      WEHEY_TRACE_BUFFER_EVENTS=N keeps at most N events
//                      in memory, spilling chunks to "<path>.chunkNNN",
//   WEHEY_REPORT=path / WEHEY_REPORT_DIR=dir — emit a RunReport
//                      (report.hpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "obs/aggregate.hpp"
#include "obs/checkpoint.hpp"
#include "obs/inspect.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/runtime.hpp"
#include "obs/timeline.hpp"

namespace wehey::obs {

class Recorder {
 public:
  Recorder(bool metrics_on, bool trace_on)
      : metrics_on_(metrics_on), trace_on_(trace_on) {}

  bool metrics_on() const { return metrics_on_; }
  bool trace_on() const { return trace_on_; }

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  Timeline& timeline() { return timeline_; }
  const Timeline& timeline() const { return timeline_; }

  /// A child with the same enablement, for one trial of a parallel loop.
  Recorder child() const { return Recorder(metrics_on_, trace_on_); }

  /// Fold a finished child back in: metrics merge, timeline events append
  /// under the next pid track (named `track` if non-empty). Call in a
  /// deterministic order (the parallel engine absorbs by trial index).
  void absorb(Recorder&& c, const std::string& track = {});

  /// The recorder bound to the current thread, or nullptr. All
  /// instrumentation is gated on this.
  static Recorder* current();

 private:
  bool metrics_on_ = false;
  bool trace_on_ = false;
  MetricsRegistry metrics_;
  Timeline timeline_;
};

/// Binds a recorder to the current thread for a lexical scope; restores
/// the previous binding on destruction. Binding nullptr disables
/// observation inside the scope.
class ScopedRecorder {
 public:
  explicit ScopedRecorder(Recorder* r);
  ~ScopedRecorder();
  ScopedRecorder(const ScopedRecorder&) = delete;
  ScopedRecorder& operator=(const ScopedRecorder&) = delete;

 private:
  Recorder* prev_;
};

/// The CSV sibling of a trace path ("x.json" -> "x.csv", else "x.csv"
/// appended).
std::string trace_csv_path(const std::string& trace_path);

/// The run harness every front end (each bench binary, wehey_cli) opens
/// first thing; the only code that turns the obs environment into
/// artifacts. It reads WEHEY_TRACE / METRICS / REPORT / REPORT_DIR /
/// REPORT_MODE / RUNTIME_REPORT / PROGRESS (and by default CHECKPOINT),
/// binds a run-wide Recorder to the constructing thread, and on
/// destruction writes the trace, report() and the sweep report. With none
/// of the variables set it is a few getenv calls and nothing else.
///
/// Grids feed each run through add_run() into a SweepAggregator, and
/// WEHEY_REPORT_MODE picks what lands on disk — per-run (default):
/// report() plus one file per run under WEHEY_REPORT_DIR; sweep: only the
/// aggregated wehey.sweep_report.v1; both: everything.
///
/// With a journal path, add_run() appends one flushed checkpoint line per
/// run and an existing journal is resumed: cached() names its completed
/// runs and absorb_cached() re-absorbs them, so a killed-and-resumed
/// sweep writes the bytes of an uninterrupted one. A journal that cannot
/// be loaded (a malformed line before its last) or opened stops the
/// process with status 1, untouched.
///
/// Notices ("trace:", "report:", "sweep report:", "checkpoint:") go to
/// stderr; stdout belongs to the front end, which may print JSON there.
class ObservedSweep {
 public:
  /// `run_name` names report(), the sweep and the journal lines;
  /// `checkpoint_path` is the journal ("" = no checkpointing).
  explicit ObservedSweep(
      std::string run_name,
      const std::string& checkpoint_path = checkpoint_path_from_env());
  ~ObservedSweep();
  ObservedSweep(const ObservedSweep&) = delete;
  ObservedSweep& operator=(const ObservedSweep&) = delete;

  /// The binary-level report written on destruction; when nothing filled
  /// its profile, the profile is derived from the trace or the stages. An
  /// empty run name writes no report or sweep file (for a front end whose
  /// command emits none, or writes its own).
  RunReport& report() { return report_; }

  /// The sweep of every run absorbed so far.
  const SweepAggregator& aggregator() const { return aggregator_; }

  /// Announce how many runs the sweep will absorb in total, enabling the
  /// progress meter's ETA (WEHEY_PROGRESS=plain|tty).
  void expect_runs(std::size_t total) { meter_.expect(total); }

  /// Absorb one run of the sweep; its injection tallies add into
  /// report()'s. In per-run / both modes the run's own
  /// report is also written as "<WEHEY_REPORT_DIR>/<run.run>.report.json"
  /// (run names must be unique within the sweep). Call in a
  /// deterministic order — the sweep file is byte-identical across
  /// absorb orders anyway, but the per-run files overwrite by name and
  /// the checkpoint journal records this order as the run index.
  void add_run(const RunReport& run, const MetricsRegistry* metrics);

  /// The journaled entry of a completed run from the journal this sweep
  /// resumed from, or nullptr when the run must (re-)execute.
  const CheckpointEntry* cached(const std::string& run_id) const {
    return journal_.find(run_id);
  }

  /// Re-absorb a journaled run instead of executing it, injection tallies
  /// included. The embedded
  /// report's exact bytes go through the aggregator's offline path
  /// (bit-equal to add_run) and — in per-run / both modes — back into the
  /// per-run report file, so a resumed sweep's artifacts are
  /// byte-identical to an uninterrupted run's. Returns the parsed report
  /// document (Type::Null on a malformed entry, with the error on stderr)
  /// so callers can rebuild their own tallies from it.
  JsonValue absorb_cached(const CheckpointEntry& entry);

 private:
  /// Write one absorbed run's report file (no-op without run_dir_).
  void write_run_file(const std::string& run, const std::string& json) const;

  std::string trace_path_;             ///< WEHEY_TRACE ("" = off)
  std::unique_ptr<Recorder> recorder_; ///< null when everything is off
  ScopedRecorder bind_;
  ReportMode mode_;
  /// WEHEY_REPORT_DIR outside sweep mode ("" = no per-run files).
  std::string run_dir_;
  SweepAggregator aggregator_;
  ProgressMeter meter_;  ///< live sweep progress (WEHEY_PROGRESS)
  RunReport report_;
  CheckpointJournal journal_;    ///< completed runs of a killed sweep
  CheckpointWriter checkpoint_;  ///< open iff a journal path was given
  std::uint64_t next_run_index_ = 0;
  std::chrono::steady_clock::time_point wall_start_;
};

}  // namespace wehey::obs
