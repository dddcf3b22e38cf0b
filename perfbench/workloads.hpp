// The benchmark's three workloads and their ops, driven through the
// library's public API only.
//
// An op is one unit of user-visible work:
//   wild_table1   — one Table-1 wild test (run_wild_test_reported);
//   testbed_grid  — one §6 testbed experiment (run_full_experiment_reported);
//   analysis_only — one core::localize call on a pre-simulated input.
// Ops are numbered 0, 1, 2, ...; op n is a pure function of (workload,
// seed, n), so two runs with one seed run identical ops.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/localizer.hpp"
#include "experiments/scenario.hpp"
#include "experiments/wild.hpp"
#include "obs/aggregate.hpp"
#include "spans.hpp"

namespace perfbench {

/// A correctness check failed: the run must end without recording numbers.
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// FNV-1a over raw bytes: digests of set-up inputs and op outcomes.
struct Digest {
  std::uint64_t h = 1469598103934665603ULL;
  void add(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ULL;
  }
  void add(const std::vector<double>& v) {
    add(v.data(), v.size() * sizeof(double));
  }
};

/// Exact simulated statistics of one op, read from the op's public
/// MetricsRegistry (all zero for an analysis_only op).
struct Counts {
  std::uint64_t events = 0;  ///< sim.events
  std::uint64_t hops = 0;    ///< sum of net.*.delivered_packets
  std::uint64_t drops = 0;   ///< sum of queue.*.drop.*
  std::uint64_t flows = 0;   ///< tcp.flows
  std::uint64_t retx = 0;    ///< tcp.retx_segments
  std::uint64_t rto = 0;     ///< tcp.rto_timeouts
  std::uint64_t heap_depth_peak = 0;  ///< max of sim.heap_depth_peak
  wehey::Time sim_time = 0;  ///< simulated time over the op's phases

  bool operator==(const Counts&) const = default;
};

/// Verdict code of an op whose trial budget ran out (no localize() call).
inline constexpr int kBudgetExhausted = -1;

struct OpResult {
  int verdict = 0;  ///< core::Verdict, or kBudgetExhausted
  int mechanism = 0;  ///< core::Mechanism
  bool threw = false;
  /// "tp" | "fp" | "fn" | "tn" | "skipped" from the v5 audit; empty when
  /// the op was not audited.
  std::string audit;
  Counts counts;
  double wall_ms = 0.0;

  /// Thrown, budget-exhausted and Inconclusive ops count as failed.
  bool failed() const {
    return threw || verdict == kBudgetExhausted ||
           verdict == static_cast<int>(wehey::core::Verdict::Inconclusive);
  }
  /// Verdict and exact counts agree (timings and audit labels aside).
  bool same_outcome(const OpResult& o) const {
    return verdict == o.verdict && mechanism == o.mechanism &&
           threw == o.threw && counts == o.counts;
  }
};

/// One simulated WeHeY test: a Table-1 wild test (basic or §5 sanity
/// check) or a §6 testbed experiment.
struct SimOp {
  enum class Kind { kWildBasic, kWildSanity, kTestbed };
  Kind kind = Kind::kTestbed;
  wehey::experiments::WildConfig wild;
  wehey::experiments::ScenarioConfig scenario;
  const std::vector<double>* t_diff = nullptr;  ///< owned by the workload
  std::string label;  ///< report cell: ISP or app/placement
};

/// The obs layer's per-run work in the traced pass: RunReport::to_json and
/// SweepAggregator::add_run into one shared aggregate.
class ReportSink {
 public:
  void add(const wehey::obs::RunReport& report,
           const wehey::obs::MetricsRegistry& metrics);

 private:
  std::mutex mu_;
  wehey::obs::SweepAggregator sweep_{"perfbench"};
};

/// The whole op through its public entry point (run_wild_test_reported /
/// run_full_experiment_reported). A testbed op also hands back its
/// localization input through `input` (the wild runner does not return
/// one).
OpResult run_whole(const SimOp& op,
                   wehey::core::LocalizationInput* input = nullptr);

/// The same op driven through its public steps, each in its own span: four
/// phases (experiments.phase), localize() (core.localize) and the report
/// (obs.report) inside an `op` span; then the three detectors localize()
/// composes, called separately on the same input (core.wehe,
/// core.throughput, core.loss_corr inside a `core.detectors` span).
OpResult run_traced_sim(const SimOp& op, OpSpans& spans, ReportSink& sink);

/// The bare op without its run report (run_wild_test,
/// run_wild_sanity_check or run_full_experiment).
void run_bare(const SimOp& op);

class Workload {
 public:
  virtual ~Workload() = default;

  /// Build the fixed inputs the ops read (T_diff archives, the analysis
  /// pool). Deterministic in the seed: returns a digest of what it built.
  virtual std::uint64_t setup() = 0;
  /// Ops in one pass over the workload's grid; the timed phase runs whole
  /// passes.
  virtual std::size_t pass_ops() const = 0;
  /// Ops handed to one parallel_map call.
  virtual std::size_t batch_ops() const = 0;
  /// The timed op.
  virtual OpResult run(std::size_t op) const = 0;
  /// The timed op through its public steps, with spans.
  virtual OpResult run_traced(std::size_t op, OpSpans& spans,
                              ReportSink& sink) const = 0;
  /// Ops re-run one at a time for the cross-width check.
  virtual std::vector<std::size_t> width_sample() const = 0;
  /// Simulations whose reported vs bare CPU gives obs.active_overhead.
  virtual std::vector<SimOp> overhead_sample() const = 0;

  /// analysis_only: the pool simulations, with the results of the whole
  /// ops that produced them; the traced pass times their phases too.
  struct PoolEntry {
    SimOp sim;
    OpResult reference;
    wehey::core::LocalizationInput input;
    bool expected_positive = false;
  };
  virtual const std::vector<PoolEntry>* pool() const { return nullptr; }
  /// analysis_only: the whole-op result of the simulation behind op's
  /// input, whose verdict the op must reproduce.
  virtual const OpResult* reference(std::size_t) const { return nullptr; }
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, unsigned width);

/// The op the failure-accounting smoke case runs: a wild test under the
/// shipped `event-storm` fault plan (default trial budgets).
OpResult run_event_storm_op(std::uint64_t seed);

}  // namespace perfbench
