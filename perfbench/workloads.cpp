#include "workloads.hpp"

#include <array>
#include <exception>
#include <optional>

#include "common/rng.hpp"
#include "core/loss_correlation.hpp"
#include "core/throughput_comparison.hpp"
#include "core/wehe.hpp"
#include "experiments/decision.hpp"
#include "experiments/history.hpp"
#include "experiments/params.hpp"
#include "faults/plan.hpp"
#include "obs/recorder.hpp"
#include "parallel/thread_pool.hpp"
#include "trace/apps.hpp"

namespace perfbench {

using namespace wehey;
using experiments::Phase;

namespace {

constexpr std::array<Phase, 4> kPhases = {
    Phase::SimOriginal, Phase::SimInverted, Phase::SingleOriginal,
    Phase::SingleInverted};
constexpr std::array<const char*, 4> kPhaseNames = {
    "sim_original", "sim_inverted", "single_original", "single_inverted"};

/// bench_table1_wild's grid: 12 basic + 3 sanity tests per ISP, T_diff
/// from 10 single replays.
constexpr std::size_t kWildBasic = 12;
constexpr std::size_t kWildSanity = 3;
constexpr std::size_t kWildTDiffReplays = 10;
constexpr std::size_t kTestbedTDiffReplays = 10;
/// Seed stride between grid passes and between workload seeds; seed 1's
/// first wild pass is exactly bench_table1_wild's grid.
constexpr std::uint64_t kPassStride = 1009;
constexpr std::uint64_t kSeedStride = 100003;

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool is_wild(const SimOp& op) { return op.kind != SimOp::Kind::kTestbed; }
bool is_sanity(const SimOp& op) {
  return op.kind == SimOp::Kind::kWildSanity;
}

/// The success predicate each runner's audit applies to a verdict.
bool observed_positive(const SimOp& op, const core::LocalizationResult& r) {
  const bool per_client =
      r.mechanism == core::Mechanism::PerClientThrottling;
  const bool localized =
      r.verdict == core::Verdict::EvidenceWithinTargetArea;
  switch (op.kind) {
    case SimOp::Kind::kWildBasic: return localized && per_client;
    case SimOp::Kind::kWildSanity: return per_client;
    case SimOp::Kind::kTestbed: return localized;
  }
  return false;
}

/// The op's exact counts from its MetricsRegistry.
Counts counts_of(const obs::MetricsRegistry& metrics) {
  Counts c;
  for (const auto& [name, counter] : metrics.counters()) {
    const std::uint64_t v = counter.value();
    if (name == "sim.events") {
      c.events += v;
    } else if (starts_with(name, "net.") &&
               ends_with(name, ".delivered_packets")) {
      c.hops += v;
    } else if (starts_with(name, "queue.") &&
               name.find(".drop.") != std::string::npos) {
      c.drops += v;
    } else if (name == "tcp.flows") {
      c.flows += v;
    } else if (name == "tcp.retx_segments") {
      c.retx += v;
    } else if (name == "tcp.rto_timeouts") {
      c.rto += v;
    }
  }
  const auto peak = metrics.gauges().find("sim.heap_depth_peak");
  if (peak != metrics.gauges().end() && peak->second.seen()) {
    c.heap_depth_peak = static_cast<std::uint64_t>(peak->second.max());
  }
  return c;
}

/// The seed of the analysis Rng each runner gives localize().
std::uint64_t analysis_seed(const SimOp& op) {
  // The analysis Rng seeds run_wild and run_full_experiment_reported
  // give localize(); the decomposed op must draw the same stream.
  return is_wild(op) ? op.wild.seed * 2654435761ULL + 101
                     : op.scenario.seed * 2654435761ULL + 9;
}

/// Simulated time over a run report's stages (the op's four phases).
Time stage_time(const obs::RunReport& report) {
  Time t = 0;
  for (const auto& s : report.stages) t += s.sim_end - s.sim_start;
  return t;
}

const char* classification(bool expected, bool observed) {
  if (expected) return observed ? "tp" : "fn";
  return observed ? "fp" : "tn";
}

/// The op through its public steps (see run_traced_sim), with spans when
/// `spans` is given and the report step when `sink` is; the assembled
/// localization input is returned through `input`.
OpResult run_decomposed(const SimOp& op, OpSpans* spans, ReportSink* sink,
                        core::LocalizationInput* input) {
  OpResult r;
  std::optional<ScopedSpan> root;
  if (spans != nullptr) root.emplace(*spans, "op");
  try {
    obs::MetricsRegistry metrics;
    std::array<experiments::PhaseReport, 4> phases;
    bool budget_exhausted = false;
    Time sim_time = 0;
    for (std::size_t i = 0; i < kPhases.size(); ++i) {
      std::optional<ScopedSpan> span;
      if (spans != nullptr) span.emplace(*spans, "experiments.phase");
      // The whole op runs its phases under a metrics recorder; bind one
      // here too so the same counters are collected.
      obs::Recorder rec(/*metrics_on=*/true, /*trace_on=*/false);
      {
        obs::ScopedRecorder bind(&rec);
        phases[i] = is_wild(op)
                        ? experiments::run_wild_phase(
                              op.wild, kPhases[i], i == 0 && is_sanity(op))
                        : experiments::run_phase(op.scenario, kPhases[i]);
      }
      metrics.merge(rec.metrics());
      budget_exhausted |= phases[i].budget_exhausted;
      sim_time += phases[i].sim_duration;
    }
    r.counts = counts_of(metrics);
    r.counts.sim_time = sim_time;

    core::LocalizationInput in;
    in.p1_original = phases[0].p1.meas;
    in.p2_original = phases[0].p2.meas;
    in.p1_inverted = phases[1].p1.meas;
    in.p2_inverted = phases[1].p2.meas;
    in.p0_original = phases[2].p1.meas;
    in.p0_inverted = phases[3].p1.meas;
    in.t_diff_history = *op.t_diff;
    in.base_rtt = is_wild(op)
                      ? milliseconds(op.wild.rtt_ms)
                      : std::max(milliseconds(op.scenario.rtt1_ms),
                                 milliseconds(op.scenario.rtt2_ms));

    core::LocalizationResult loc;
    if (budget_exhausted) {
      r.verdict = kBudgetExhausted;
    } else {
      std::optional<ScopedSpan> span;
      if (spans != nullptr) span.emplace(*spans, "core.localize");
      Rng rng(analysis_seed(op));
      loc = core::localize(in, rng);
      r.verdict = static_cast<int>(loc.verdict);
      r.mechanism = static_cast<int>(loc.mechanism);
    }

    if (sink != nullptr) {
      std::optional<ScopedSpan> span;
      if (spans != nullptr) span.emplace(*spans, "obs.report");
      // The runners' ground-truth ledger needs the wild trace rate, which
      // is private to the library, so this report carries the verdict,
      // decision, stages and merged metrics only.
      obs::RunReport report;
      report.run = op.label;
      report.cell = op.label;
      report.seed = is_wild(op) ? op.wild.seed : op.scenario.seed;
      report.verdict = budget_exhausted ? obs::kBudgetExhaustedVerdict
                                        : core::to_string(loc.verdict);
      report.decision = experiments::decision_section(loc.trace);
      for (std::size_t i = 0; i < kPhases.size(); ++i) {
        report.add_stage(kPhaseNames[i], 0, phases[i].sim_duration);
      }
      report.values["localized"] =
          loc.verdict == core::Verdict::EvidenceWithinTargetArea ? 1.0 : 0.0;
      sink->add(report, metrics);
    }
    if (input != nullptr) *input = std::move(in);
  } catch (const std::exception&) {
    r.threw = true;
  }
  return r;
}

/// The three detectors localize() composes, each called separately on
/// `input` in its own span.
void trace_detectors(const core::LocalizationInput& input,
                     std::uint64_t rng_seed, OpSpans& spans) {
  ScopedSpan root(spans, "core.detectors");
  {
    ScopedSpan span(spans, "core.wehe");
    core::detect_differentiation(input.p1_original, input.p1_inverted);
    core::detect_differentiation(input.p2_original, input.p2_inverted);
  }
  {
    ScopedSpan span(spans, "core.throughput");
    const core::WeheConfig wehe;
    const auto x = input.p0_original.throughput_samples(wehe.intervals);
    const auto y = core::aggregate_samples(
        input.p1_original.throughput_samples(wehe.intervals),
        input.p2_original.throughput_samples(wehe.intervals));
    Rng rng(rng_seed);
    core::throughput_comparison(x, y, input.t_diff_history, rng);
  }
  {
    ScopedSpan span(spans, "core.loss_corr");
    core::loss_trend_correlation(input.p1_original, input.p2_original,
                                 input.base_rtt);
  }
}

}  // namespace

void ReportSink::add(const obs::RunReport& report,
                     const obs::MetricsRegistry& metrics) {
  // Serialized for its cost, as a report writer would; the text itself
  // is not needed.
  const std::string json = report.to_json(&metrics);
  std::lock_guard<std::mutex> lock(mu_);
  sweep_.add_run(report, &metrics);
}


OpResult run_whole(const SimOp& op, core::LocalizationInput* input) {
  OpResult r;
  try {
    if (is_wild(op)) {
      const auto res = experiments::run_wild_test_reported(
          op.wild, *op.t_diff, is_sanity(op), op.label);
      r.verdict = res.outcome.budget_exhausted
                      ? kBudgetExhausted
                      : static_cast<int>(res.outcome.localization.verdict);
      r.mechanism = static_cast<int>(res.outcome.localization.mechanism);
      r.audit = res.report.audit.classification;
      r.counts = counts_of(res.metrics);
      r.counts.sim_time = stage_time(res.report);
    } else {
      auto res = experiments::run_full_experiment_reported(
          op.scenario, *op.t_diff, op.label);
      r.verdict = res.report.verdict == obs::kBudgetExhaustedVerdict
                      ? kBudgetExhausted
                      : static_cast<int>(res.localization.verdict);
      r.mechanism = static_cast<int>(res.localization.mechanism);
      r.audit = res.report.audit.classification;
      r.counts = counts_of(res.metrics);
      r.counts.sim_time = stage_time(res.report);
      if (input != nullptr) *input = std::move(res.input);
    }
  } catch (const std::exception&) {
    r.threw = true;
  }
  return r;
}


OpResult run_traced_sim(const SimOp& op, OpSpans& spans, ReportSink& sink) {
  core::LocalizationInput input;
  OpResult r = run_decomposed(op, &spans, &sink, &input);
  if (!r.failed()) trace_detectors(input, analysis_seed(op), spans);
  return r;
}

void run_bare(const SimOp& op) {
  switch (op.kind) {
    case SimOp::Kind::kWildBasic:
      experiments::run_wild_test(op.wild, *op.t_diff);
      break;
    case SimOp::Kind::kWildSanity:
      experiments::run_wild_sanity_check(op.wild, *op.t_diff);
      break;
    case SimOp::Kind::kTestbed:
      experiments::run_full_experiment(op.scenario, *op.t_diff);
      break;
  }
}


namespace {

/// Shared by the two simulation workloads: an op is one SimOp, reading
/// one of the T_diff archives built at set-up (one per ISP or app).
class SimWorkload : public Workload {
 public:
  explicit SimWorkload(unsigned width) : width_(width) {}

  virtual SimOp sim_op(std::size_t op) const = 0;
  virtual std::size_t archives() const = 0;
  virtual std::vector<double> build_archive(std::size_t i) const = 0;

  std::uint64_t setup() override {
    set_archives(parallel::parallel_map(
        archives(), [&](std::size_t i) { return build_archive(i); }, width_));
    return archive_digest();
  }

  void set_archives(std::vector<std::vector<double>> archives) {
    t_diff_ = std::move(archives);
  }

  std::uint64_t archive_digest() const {
    Digest d;
    for (const auto& t : t_diff_) d.add(t);
    return d.h;
  }

  OpResult run(std::size_t op) const override { return run_whole(sim_op(op)); }

  OpResult run_traced(std::size_t op, OpSpans& spans,
                      ReportSink& sink) const override {
    return run_traced_sim(sim_op(op), spans, sink);
  }

  std::vector<SimOp> overhead_sample() const override {
    std::vector<SimOp> out;
    for (std::size_t op : width_sample()) out.push_back(sim_op(op));
    return out;
  }

 protected:
  unsigned width_;
  std::vector<std::vector<double>> t_diff_;
};

class WildTable1 final : public SimWorkload {
 public:
  WildTable1(std::uint64_t seed, unsigned width)
      : SimWorkload(width),
        seed_(seed),
        isps_(experiments::default_isp_models()) {}

  std::size_t archives() const override { return isps_.size(); }
  std::vector<double> build_archive(std::size_t isp) const override {
    return experiments::build_wild_t_diff(base(isp), kWildTDiffReplays);
  }

  std::size_t pass_ops() const override {
    return isps_.size() * (kWildBasic + kWildSanity);
  }
  /// One ISP's 15 tests per batch, as bench_table1_wild fans them out.
  std::size_t batch_ops() const override { return kWildBasic + kWildSanity; }

  SimOp sim_op(std::size_t op) const override {
    const std::size_t per_isp = kWildBasic + kWildSanity;
    const std::uint64_t pass = op / pass_ops();
    const std::size_t isp = (op % pass_ops()) / per_isp;
    const std::size_t i = op % per_isp;
    const std::uint64_t offset =
        (seed_ - 1) * kSeedStride + pass * kPassStride;
    SimOp s;
    s.wild = base(isp);
    s.t_diff = &t_diff_[isp];
    s.label = isps_[isp].name;
    if (i < kWildBasic) {
      s.kind = SimOp::Kind::kWildBasic;
      s.wild.seed = 1000 + i * 17 + offset;
      const auto& services = trace::tcp_app_names();
      s.wild.app = services[i % services.size()];
    } else {
      s.kind = SimOp::Kind::kWildSanity;
      s.wild.seed = 5000 + (i - kWildBasic) * 13 + offset;
    }
    return s;
  }

  std::vector<std::size_t> width_sample() const override {
    std::vector<std::size_t> out;
    for (std::size_t isp = 0; isp < isps_.size(); ++isp) {
      out.push_back(isp * (kWildBasic + kWildSanity) + isp);
    }
    return out;
  }

 private:
  experiments::WildConfig base(std::size_t isp) const {
    experiments::WildConfig cfg;
    cfg.isp = isps_[isp];
    cfg.seed = seed_;
    cfg.bg_mode = trace::BackgroundMode::kPacket;
    cfg.fault_plan = nullptr;
    return cfg;
  }

  std::uint64_t seed_;
  std::vector<experiments::IspModel> isps_;
};

class TestbedGrid final : public SimWorkload {
 public:
  TestbedGrid(std::uint64_t seed, unsigned width)
      : SimWorkload(width),
        seed_(seed),
        apps_(experiments::evaluation_apps()) {}

  std::size_t archives() const override { return apps_.size(); }
  std::vector<double> build_archive(std::size_t app) const override {
    return experiments::build_t_diff_history(
        scenario(app, experiments::Placement::CommonLink, seed_),
        experiments::HistoryConfig{kTestbedTDiffReplays});
  }

  /// Every app under both placements.
  std::size_t pass_ops() const override { return 2 * apps_.size(); }
  std::size_t batch_ops() const override { return pass_ops(); }

  SimOp sim_op(std::size_t op) const override {
    const std::uint64_t pass = op / pass_ops();
    const std::size_t i = op % pass_ops();
    const std::size_t app = i / 2;
    // Even ops: one collective limiter on the common link (expected
    // localized); odd ops: Table 5's identical independent limiters on
    // the non-common links (expected not localized).
    const auto placement = i % 2 == 0 ? experiments::Placement::CommonLink
                                      : experiments::Placement::NonCommonLinks;
    SimOp s;
    s.kind = SimOp::Kind::kTestbed;
    s.scenario = scenario(
        app, placement, seed_ * kSeedStride + pass * kPassStride + i + 1);
    s.t_diff = &t_diff_[app];
    s.label = apps_[app] + (i % 2 == 0 ? "/common" : "/noncommon");
    return s;
  }

  std::vector<std::size_t> width_sample() const override {
    return {0, 1, pass_ops() - 2, pass_ops() - 1};
  }

 private:
  experiments::ScenarioConfig scenario(std::size_t app,
                                       experiments::Placement placement,
                                       std::uint64_t seed) const {
    auto cfg = experiments::default_scenario(apps_[app], seed);
    cfg.placement = placement;
    cfg.replay_duration = seconds(45);
    cfg.bg_mode = trace::BackgroundMode::kPacket;
    cfg.fault_plan = nullptr;
    return cfg;
  }

  std::uint64_t seed_;
  std::vector<std::string> apps_;
};

/// analysis_only's inputs are a fixed corpus, simulated from both grids'
/// first-pass configs at this seed: with only ~20 inputs, a corpus drawn
/// per workload seed would swing ops_per_s, the percentiles and accuracy
/// by which inputs a seed happened to draw. The workload seed sets the
/// order in which ops visit the corpus.
constexpr std::uint64_t kCorpusSeed = 1;
/// Distinct corpus visiting orders before the sequence repeats.
constexpr std::size_t kOrderCycles = 64;

class AnalysisOnly final : public Workload {
 public:
  AnalysisOnly(std::uint64_t seed, unsigned width)
      : seed_(seed),
        width_(width),
        wild_(kCorpusSeed, width),
        testbed_(kCorpusSeed, width) {}

  std::uint64_t setup() override {
    // Both grids' archives in one batch, the testbed's first: Netflix's
    // is the longest task.
    const std::size_t n_testbed = testbed_.archives();
    auto archives = parallel::parallel_map(
        n_testbed + wild_.archives(),
        [&](std::size_t i) {
          return i < n_testbed ? testbed_.build_archive(i)
                               : wild_.build_archive(i - n_testbed);
        },
        width_);
    wild_.set_archives({archives.begin() + n_testbed, archives.end()});
    archives.resize(n_testbed);
    testbed_.set_archives(std::move(archives));
    Digest d;
    const std::uint64_t digests[] = {testbed_.archive_digest(),
                                     wild_.archive_digest()};
    d.add(digests, sizeof(digests));

    // Both grids' first-pass configs: per-client positives (one basic
    // test per ISP), sanity negatives (ISP1, ISP3), and every testbed app
    // under a collective limiter (positive) and NonCommon limiters
    // (negative).
    std::vector<SimOp> sims;
    const std::size_t per_isp = kWildBasic + kWildSanity;
    for (std::size_t isp = 0; isp < 5; ++isp) {
      sims.push_back(wild_.sim_op(isp * per_isp + isp));
    }
    sims.push_back(wild_.sim_op(0 * per_isp + kWildBasic));
    sims.push_back(wild_.sim_op(2 * per_isp + kWildBasic));
    for (std::size_t i = 0; i < testbed_.pass_ops(); ++i) {
      sims.push_back(testbed_.sim_op(i));
    }
    // The whole op gives the reference verdict and, for a testbed op, the
    // input; a wild op's input comes from its decomposed run, which must
    // agree with the whole op.
    std::vector<char> consistent(sims.size(), 1);
    pool_ = parallel::parallel_map(
        sims.size(),
        [&](std::size_t k) {
          PoolEntry e;
          e.sim = sims[k];
          e.reference = run_whole(e.sim, &e.input);
          if (is_wild(e.sim)) {
            consistent[k] =
                run_decomposed(e.sim, nullptr, nullptr, &e.input)
                    .same_outcome(e.reference);
          }
          e.expected_positive =
              e.reference.audit == "tp" || e.reference.audit == "fn";
          return e;
        },
        width_);
    for (std::size_t k = 0; k < pool_.size(); ++k) {
      if (!consistent[k]) {
        throw CheckFailure("analysis pool entry " + std::to_string(k) + " (" +
                           pool_[k].sim.label +
                           "): the decomposed simulation differs from the "
                           "whole op");
      }
      d.add(&pool_[k].reference.counts, sizeof(pool_[k].reference.counts));
      d.add(&pool_[k].reference.verdict, sizeof(pool_[k].reference.verdict));
    }
    // Each cycle visits every entry once, in a seeded order.
    Rng rng(seed_);
    order_.clear();
    for (std::size_t c = 0; c < kOrderCycles; ++c) {
      std::vector<std::size_t> cycle(pool_.size());
      for (std::size_t i = 0; i < cycle.size(); ++i) cycle[i] = i;
      for (std::size_t i = cycle.size(); i > 1; --i) {
        const auto j = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
        std::swap(cycle[i - 1], cycle[j]);
      }
      order_.insert(order_.end(), cycle.begin(), cycle.end());
    }
    d.add(order_.data(), order_.size() * sizeof(std::size_t));
    return d.h;
  }

  std::size_t pass_ops() const override { return pool_.size(); }
  /// Eight pool cycles per batch keeps the per-call dispatch cost small
  /// next to ~1 ms ops.
  std::size_t batch_ops() const override { return 8 * pool_.size(); }

  OpResult run(std::size_t op) const override {
    const PoolEntry& e = entry(op);
    OpResult r;
    Rng rng(analysis_seed(e.sim));
    const auto loc = core::localize(e.input, rng);
    r.verdict = static_cast<int>(loc.verdict);
    r.mechanism = static_cast<int>(loc.mechanism);
    r.audit = classification(e.expected_positive,
                             observed_positive(e.sim, loc));
    return r;
  }

  OpResult run_traced(std::size_t op, OpSpans& spans,
                      ReportSink&) const override {
    OpResult r;
    {
      ScopedSpan root(spans, "op");
      ScopedSpan span(spans, "core.localize");
      r = run(op);
    }
    const PoolEntry& e = entry(op);
    trace_detectors(e.input, analysis_seed(e.sim), spans);
    return r;
  }

  const OpResult* reference(std::size_t op) const override {
    return &entry(op).reference;
  }

  std::vector<std::size_t> width_sample() const override {
    std::vector<std::size_t> out(pool_.size());
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = i;
    return out;
  }

  /// The first testbed pool entries (Netflix and Skype, both placements).
  std::vector<SimOp> overhead_sample() const override {
    std::vector<SimOp> out;
    for (const auto& e : pool_) {
      if (e.sim.kind == SimOp::Kind::kTestbed && out.size() < 4) {
        out.push_back(e.sim);
      }
    }
    return out;
  }

  const std::vector<PoolEntry>* pool() const override { return &pool_; }

 private:
  const PoolEntry& entry(std::size_t op) const {
    return pool_[order_[op % order_.size()]];
  }

  std::uint64_t seed_;
  unsigned width_;
  WildTable1 wild_;
  TestbedGrid testbed_;
  std::vector<PoolEntry> pool_;
  std::vector<std::size_t> order_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, unsigned width) {
  if (name == "wild_table1") return std::make_unique<WildTable1>(seed, width);
  if (name == "testbed_grid") {
    return std::make_unique<TestbedGrid>(seed, width);
  }
  if (name == "analysis_only") {
    return std::make_unique<AnalysisOnly>(seed, width);
  }
  return nullptr;
}

OpResult run_event_storm_op(std::uint64_t seed) {
  const faults::FaultPlan plan = faults::shipped_plan("event-storm", seed);
  const std::vector<double> t_diff = {0.06, -0.09, 0.12, -0.04, 0.08, -0.11,
                                      0.05, -0.07, 0.10, -0.03};
  SimOp op;
  op.kind = SimOp::Kind::kWildBasic;
  op.wild.isp = experiments::default_isp_models()[0];
  op.wild.seed = seed;
  op.wild.bg_mode = trace::BackgroundMode::kPacket;
  op.wild.fault_plan = &plan;
  op.t_diff = &t_diff;
  op.label = "event-storm";
  return run_whole(op);
}

}  // namespace perfbench
