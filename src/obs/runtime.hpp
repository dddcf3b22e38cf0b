// Engine runtime telemetry: a wall-clock profiler for the thread pool
// plus a live sweep progress meter.
//
// Everything in this header observes the *engine* on the *wall* clock —
// the opposite of every other obs component, which observes the
// *simulation* on the *sim* clock. Wall-clock data is inherently
// nondeterministic, so none of it may ever reach the byte-identical
// RunReport / sweep-report contract: the profiler is read in process
// through snapshot() (perfbench's traced pass reports its efficiency,
// imbalance, wait fraction and submit-to-start p99 as the `parallel.*`
// metrics), and the progress meter writes only to stderr.
//
// Cost model, mirroring hotpath.hpp:
//
//   * disabled (the default): every hook is one relaxed atomic load and a
//     branch;
//   * enabled (set_enabled(true)): per-thread slots with relaxed atomic
//     counters — writers never share a cache line with other writers' hot
//     fields, and the only synchronization is the one-time slot
//     registration.
//
// Deterministic-count contract: the *count* fields (tasks executed, jobs
// submitted) are pure functions of the workload, so `tasks` is exactly
// equal across WEHEY_THREADS settings — the parallel engine counts it on
// its serial fallback paths too. The *time* fields (busy/idle/wait, the
// submit-to-start histogram) are wall-clock and only comparable as ranges.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace wehey::obs::runtime {

// ------------------------------------------------------------ cheap gate

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Turn the profiler on/off at runtime.
void set_enabled(bool on);

/// Zero every counter, histogram and watermark and restart the profiler's
/// wall clock, so the next snapshot() covers one measured phase.
void reset();

/// Monotonic nanoseconds for hook call sites (steady_clock).
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ------------------------------------------------------- engine hooks
//
// All hooks are no-ops while !enabled(); call sites in the parallel
// engine additionally guard with `if (runtime::enabled())` so the
// timestamp reads fold away too.

enum class ThreadKind { kCaller, kWorker };

/// Thread-slot registration happens lazily inside the note_* hooks; this
/// forces it up front (e.g. from worker_loop) so the first sample isn't
/// charged the registration mutex.
void register_thread(ThreadKind kind);

/// A pool worker spent `ns` parked in the work queue's condition wait.
void note_idle(std::uint64_t ns);

/// The calling thread spent `ns` draining a parallel_for (waiting for the
/// last workers to leave run_chunks after its own chunks ran out).
void note_drain_wait(std::uint64_t ns);

/// One claimed chunk of a broadcast job ran for `ns`, executing `tasks`
/// loop iterations on this thread.
void note_chunk(std::uint64_t ns, std::uint64_t tasks);

/// A broadcast job with `n` pending iterations was submitted to the pool.
/// Tracks the job count and the queue-depth high-water mark.
void note_job(std::size_t n);

/// First pickup of a job by a worker: wall latency from parallel_for's
/// submit to this worker's first chunk claim.
void note_submit_to_start(std::uint64_t ns);

/// `n` loop iterations ran serially on the calling thread (the engine's
/// serial fallback paths), taking `ns` overall. Keeps the task count
/// exact across thread counts.
void note_serial_tasks(std::uint64_t n, std::uint64_t ns);

// Busy-region nesting. A trial body that reaches a nested parallel_map /
// parallel_for runs it serially in place (t_in_parallel_region), so the
// nested loop re-walks nanoseconds the enclosing chunk is already timing.
// Busy wall time is therefore charged only by the *outermost* executing
// region on a thread — without the bracket, parallel_efficiency could
// exceed 1.0. Task/chunk counts are charged at every depth (they are the
// deterministic fields and nested iterations are real work items).
void busy_enter();
void busy_exit();

/// RAII bracket around one executing region (a chunk-claim loop or a
/// serial fallback loop). Gating on enabled() at construction keeps the
/// bracket balanced even if the profiler is toggled mid-region.
class ScopedBusy {
 public:
  ScopedBusy() : active_(enabled()) {
    if (active_) busy_enter();
  }
  ~ScopedBusy() {
    if (active_) busy_exit();
  }
  ScopedBusy(const ScopedBusy&) = delete;
  ScopedBusy& operator=(const ScopedBusy&) = delete;

 private:
  bool active_;
};

// ---------------------------------------------------------- snapshot

/// Fixed-layout copy of an atomic latency histogram: `bins` holds
/// underflow + buckets + overflow, like obs::Histogram.
struct HistSnapshot {
  double lo = 0.0;
  double hi = 0.0;
  std::uint64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  std::vector<std::uint64_t> bins;
};

struct WorkerSnapshot {
  int id = 0;
  ThreadKind kind = ThreadKind::kCaller;
  double busy_ms = 0.0;   ///< inside run_chunks / serial loops
  double idle_ms = 0.0;   ///< parked in the pool's condition wait
  double wait_ms = 0.0;   ///< caller-side drain waits
  std::uint64_t chunks = 0;
  std::uint64_t tasks = 0;
};

struct RuntimeSnapshot {
  double wall_seconds = 0.0;  ///< since enable/reset
  std::vector<WorkerSnapshot> workers;  ///< threads that recorded anything

  // Scheduler totals and derived efficiency metrics.
  std::uint64_t jobs = 0;
  std::uint64_t tasks = 0;  ///< deterministic: exact across thread counts
  std::uint64_t queue_depth_high_water = 0;
  std::uint64_t drain_waits = 0;  ///< caller drain waits (== pooled jobs)
  HistSnapshot submit_to_start_us;
  /// Sum(busy) / (contexts * wall): 1.0 = every context busy the whole
  /// window. 0 when no context recorded anything.
  double parallel_efficiency = 0.0;
  /// max(busy) / mean(busy) over contexts with busy > 0; 1.0 = perfectly
  /// balanced (and when <= 1 context ran).
  double worker_imbalance = 1.0;
  /// Sum(drain wait) / Sum(busy + idle + drain wait).
  double wait_fraction = 0.0;
};

/// Consistent-enough copy of all counters (relaxed reads — take it when
/// the engine is quiescent for exact numbers).
RuntimeSnapshot snapshot();

}  // namespace wehey::obs::runtime

namespace wehey::obs {

// ------------------------------------------------------ progress meter

/// Live sweep progress heartbeat on stderr (WEHEY_PROGRESS=off|plain|tty,
/// default off), rate-limited to ~1 line/s. Tracks completed/total runs,
/// throughput, ETA, resumed-from-checkpoint, quarantine (budget-exhausted
/// verdicts) and knife-edge (|decision margin| under the gate threshold)
/// counts. finish() prints a final one-line wall-clock summary even in
/// mode "off", so CI logs capture sweep throughput without parsing JSON.
class ProgressMeter {
 public:
  enum class Mode { kOff, kPlain, kTty };

  /// Reads WEHEY_PROGRESS. `label` prefixes every line.
  explicit ProgressMeter(std::string label);

  /// Total runs the sweep will absorb (0 = unknown; no ETA then).
  void expect(std::size_t total) { total_ = total; }

  /// One run re-absorbed from a checkpoint journal (did not execute).
  void note_resumed() {
    ++resumed_;
    note_done("", false, 0.0);
  }

  /// One run executed. `has_margin`/`margin` come from the run's decision
  /// section; the knife-edge tally uses the same threshold as the sweep
  /// aggregator (kDefaultKnifeEdgeMargin).
  void note_run(const std::string& verdict, bool has_margin, double margin) {
    note_done(verdict, has_margin, margin);
  }

  /// Print the final summary line (total runs, wall seconds, runs/sec,
  /// resumed count) — always, even in mode off, when any run was seen.
  void finish();

  Mode mode() const { return mode_; }
  std::size_t completed() const { return completed_; }
  std::size_t resumed() const { return resumed_; }
  std::size_t quarantined() const { return quarantined_; }
  std::size_t knife_edge() const { return knife_edge_; }

 private:
  void note_done(const std::string& verdict, bool has_margin, double margin);
  void maybe_print(bool force);

  std::string label_;
  Mode mode_ = Mode::kOff;
  std::size_t total_ = 0;
  std::size_t completed_ = 0;
  std::size_t resumed_ = 0;
  std::size_t quarantined_ = 0;
  std::size_t knife_edge_ = 0;
  bool finished_ = false;
  bool line_open_ = false;  ///< tty mode: last write was a \r line
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point last_print_;
};

}  // namespace wehey::obs
