#include "experiments/wild.hpp"

#include "experiments/decision.hpp"
#include "experiments/delayed_tbf.hpp"
#include "experiments/ground_truth.hpp"

#include <algorithm>
#include <deque>

#include "common/check.hpp"
#include "faults/injector.hpp"
#include "obs/recorder.hpp"
#include "parallel/supervisor.hpp"
#include "parallel/thread_pool.hpp"
#include "stats/descriptive.hpp"
#include "trace/apps.hpp"
#include "trace/background.hpp"

namespace wehey::experiments {
namespace {

constexpr Time kSecondReplayOffset = milliseconds(5);
constexpr Time kDrainGrace = seconds(3);

trace::AppTrace wild_trace(const WildConfig& cfg, bool inverted) {
  // All five wild apps are TCP streaming services, each with its own
  // chunking profile; the seed makes each session a deterministic
  // "recording".
  std::uint64_t app_hash = 1469598103934665603ULL;
  for (char ch : cfg.app) app_hash = (app_hash ^ static_cast<unsigned char>(ch)) * 1099511628211ULL;
  Rng trace_rng(cfg.seed * 0x9e3779b9ULL ^ app_hash);
  const auto& known = trace::tcp_app_names();
  const std::string app =
      std::find(known.begin(), known.end(), cfg.app) != known.end()
          ? cfg.app
          : "Netflix";
  trace::AppTrace t = trace::make_tcp_app_trace(app, seconds(15), trace_rng);
  t.app = cfg.app;
  if (inverted) t = trace::bit_invert(t);
  return trace::extend(t, cfg.replay_duration);
}

/// The Figure-1 parameters of a wild test's network: per-client limiter
/// (or ISP5's delayed TBF) on the common link plus the jittery cellular
/// access link.
NetworkParams wild_network_params(const WildConfig& cfg, Rate trace_rate) {
  NetworkParams net;
  const Time rtt = milliseconds(cfg.rtt_ms);
  net.rtt1 = rtt;
  net.rtt2 = rtt;
  net.bw_nc1 = 20.0 * trace_rate;
  net.bw_nc2 = 20.0 * trace_rate;
  net.bw_c = 20.0 * trace_rate;
  net.placement = Placement::None;  // common disc installed via factory

  // Cellular last mile: nominal capacity only moderately above the trace
  // rate, with substantial jitter — the source of normal throughput
  // variation between repeated tests.
  net.access_rate = cfg.isp.access_rate_factor * trace_rate;
  net.access_jitter_sigma = cfg.isp.access_jitter;

  const Rate throttle_rate = cfg.isp.throttle_factor * trace_rate;
  const auto lp =
      make_limiter(throttle_rate, rtt, cfg.isp.queue_burst_factor);
  const std::int64_t fifo_limit = std::max<std::int64_t>(
      64 * 1024,
      static_cast<std::int64_t>(bytes_in(net.bw_c, milliseconds(50))));
  const bool delayed = cfg.isp.delayed_fixed_rate;
  const std::int64_t trigger = static_cast<std::int64_t>(
      cfg.isp.trigger_seconds * trace_rate / 8.0);
  net.common_disc_factory = [lp, fifo_limit, delayed, trigger]() {
    auto fifo = std::make_unique<netsim::FifoDisc>(fifo_limit);
    std::unique_ptr<netsim::QueueDisc> throttled;
    if (delayed) {
      throttled = std::make_unique<DelayedTbfDisc>(trigger, lp.rate,
                                                   lp.burst, lp.limit);
    } else {
      throttled =
          std::make_unique<netsim::TbfDisc>(lp.rate, lp.burst, lp.limit);
    }
    return std::make_unique<netsim::RateLimiterDisc>(std::move(fifo),
                                                     std::move(throttled));
  };
  return net;
}

std::uint64_t phase_seed(const WildConfig& cfg, Phase phase) {
  return cfg.seed * 1000003ULL + static_cast<std::uint64_t>(phase) * 7919ULL;
}

faults::FaultInjector phase_injector(const faults::FaultPlan* plan,
                                     std::uint64_t phase_seed_value) {
  if (plan == nullptr || !plan->enabled()) return faults::FaultInjector{};
  faults::FaultPlan derived = *plan;
  derived.seed = plan->seed * 0x100000001b3ULL ^ phase_seed_value;
  return faults::FaultInjector(derived);
}

const char* wild_phase_name(Phase p) {
  switch (p) {
    case Phase::SimOriginal: return "wild_sim_original";
    case Phase::SimInverted: return "wild_sim_inverted";
    case Phase::SingleOriginal: return "wild_single_original";
    case Phase::SingleInverted: return "wild_single_inverted";
  }
  return "?";
}

void arm_replay_cut(faults::FaultInjector& inj, FigureOneNetwork& net,
                    int path, Time replay_duration) {
  if (!inj.enabled()) return;
  const auto fault = inj.on_replay_start(path);
  if (fault.storm) {
    ReplayStorm storm;
    storm.after = static_cast<Time>(static_cast<double>(replay_duration) *
                                    fault.storm_at_fraction);
    storm.interval = fault.storm_interval;
    net.set_next_replay_storm(storm);
  }
  if (!fault.abort) return;
  ReplayCut cut;
  cut.after = static_cast<Time>(static_cast<double>(replay_duration) *
                                fault.at_fraction);
  cut.after_bytes = fault.after_bytes;
  net.set_next_replay_cut(cut);
}

}  // namespace

std::vector<IspModel> default_isp_models() {
  // Four unconditional per-client throttlers with mildly different
  // parameters, and the delayed fixed-rate one (ISP5).
  return {
      {"ISP1", 0.60, 0.50, 1.3, 0.35, false, 0.0},
      {"ISP2", 0.55, 0.25, 1.3, 0.30, false, 0.0},
      {"ISP3", 0.65, 1.00, 1.4, 0.30, false, 0.0},
      {"ISP4", 0.50, 0.50, 1.3, 0.25, false, 0.0},
      // ISP5: delayed fixed-rate throttling; its access link is fast
      // enough (2.6x) that the pre-trigger simultaneous replay really
      // does run at ~2x the single replay, maximizing the X/Y mismatch
      // the paper observed (Figure 4).
      {"ISP5", 0.60, 0.50, 2.6, 0.30, true, 25.0},
  };
}

PhaseReport run_wild_phase(const WildConfig& cfg, Phase phase,
                           bool third_replay) {
  const trace::AppTrace original = wild_trace(cfg, false);
  const Rate trace_rate = original.average_rate();
  Rng rng(phase_seed(cfg, phase));

  netsim::Simulator sim;
  parallel::install_trial_budget(sim);
  FigureOneNetwork net(sim, wild_network_params(cfg, trace_rate), rng);

  // The client's own light background (not differentiated).
  trace::BackgroundConfig bg;
  bg.target_rate = cfg.bg_rate_per_path;
  bg.duration = cfg.replay_duration + kDrainGrace;
  bg.flows_per_second = 2.0;
  for (int path = 1; path <= 2; ++path) {
    net.attach_background(path, trace::generate_background(bg, rng));
  }

  const bool is_original =
      phase == Phase::SimOriginal || phase == Phase::SingleOriginal;
  const bool simultaneous =
      phase == Phase::SimOriginal || phase == Phase::SimInverted;
  const trace::AppTrace replay = wild_trace(cfg, !is_original);

  auto injector = phase_injector(cfg.fault_plan, phase_seed(cfg, phase));
  transport::TcpConfig tcp;  // pacing on: WeHeY's modified replay
  const int kConnections = 3;  // streaming sessions use several flows
  arm_replay_cut(injector, net, 1, cfg.replay_duration);
  const int id1 = net.start_tcp_replay(1, replay, 0, tcp, kConnections);
  int id2 = 0;
  if (simultaneous) {
    arm_replay_cut(injector, net, 2, cfg.replay_duration);
    id2 = net.start_tcp_replay(2, replay, kSecondReplayOffset, tcp,
                               kConnections);
    if (third_replay && is_original) {
      // Sanity check (§5): a third server replays a third original trace
      // concurrently; it shares the per-client limiter via path 1.
      WildConfig third = cfg;
      third.seed = cfg.seed + 9999;
      third.app = "Twitch";
      net.start_tcp_replay(1, wild_trace(third, false),
                           2 * kSecondReplayOffset, tcp, kConnections);
    }
  }

  net.run(cfg.replay_duration, kDrainGrace);

  PhaseReport rep;
  rep.budget_exhausted = sim.budget_exhausted();
  rep.budget_reason = sim.budget_reason();
  rep.p1 = net.report(id1, 0, cfg.replay_duration);
  if (simultaneous) {
    rep.p2 = net.report(id2, kSecondReplayOffset, cfg.replay_duration);
  }
  rep.limiter_drops = net.limiter_drops();
  rep.sim_duration = sim.now();
  if (injector.enabled()) {
    bool upload_faulted = injector.on_measurement_upload(1, rep.p1.meas);
    if (simultaneous) {
      upload_faulted |= injector.on_measurement_upload(2, rep.p2.meas);
    }
    rep.faulted = upload_faulted || rep.p1.aborted || rep.p2.aborted;
  }
  rep.injection = injector.stats();
  if (obs::Recorder* rec = obs::Recorder::current()) {
    net.snapshot_metrics();
    if (rec->metrics_on()) {
      auto& m = rec->metrics();
      m.counter("phase.count").inc();
      if (rep.faulted) m.counter("phase.faulted").inc();
      if (rep.budget_exhausted) m.counter("phase.budget_exhausted").inc();
      for (const auto& [kind, count] : rep.injection.by_kind()) {
        if (count > 0) {
          m.counter(std::string("faults.") + kind)
              .inc(static_cast<std::uint64_t>(count));
        }
      }
    }
    if (rec->trace_on()) {
      rec->timeline().span(wild_phase_name(phase), "phase", 0, sim.now());
    }
  }
  return rep;
}

std::vector<double> build_wild_t_diff(const WildConfig& cfg,
                                      std::size_t replays) {
  WEHEY_EXPECTS(replays >= 2);
  // Each replay is an independent seeded simulation; fan them out over the
  // parallel engine (result order is by index, so t_diff is unchanged).
  const std::vector<double> means =
      parallel::parallel_map(replays, [&](std::size_t i) {
        WildConfig run = cfg;
        run.seed = cfg.seed * 104729ULL + i * 131ULL + 3ULL;
        const auto rep = run_wild_phase(run, Phase::SingleInverted);
        return stats::mean(rep.p1.meas.throughput_samples(100));
      });
  // All pair combinations (§4.1 pairs every two nearby tests).
  std::vector<double> t_diff;
  t_diff.reserve(means.size() * (means.size() - 1) / 2);
  for (std::size_t i = 0; i < means.size(); ++i) {
    for (std::size_t j = i + 1; j < means.size(); ++j) {
      const double hi = std::max(means[i], means[j]);
      t_diff.push_back(hi > 0 ? (means[i] - means[j]) / hi : 0.0);
    }
  }
  return t_diff;
}

namespace {

constexpr Phase kWildPhases[] = {Phase::SimOriginal, Phase::SimInverted,
                                 Phase::SingleOriginal,
                                 Phase::SingleInverted};

WildTestOutcome run_wild(const WildConfig& cfg,
                         const std::vector<double>& t_diff,
                         bool third_replay,
                         std::vector<PhaseReport>* phases_out = nullptr) {
  core::LocalizationInput input;
  // The four wild phases are independent simulations; run them through the
  // parallel engine (serial when nested inside an outer sweep).
  const auto reports = parallel::parallel_map(4, [&](std::size_t i) {
    return run_wild_phase(cfg, kWildPhases[i],
                          i == 0 ? third_replay : false);
  });
  const auto& sim_orig = reports[0];
  const auto& sim_inv = reports[1];
  const auto& single_orig = reports[2];
  const auto& single_inv = reports[3];
  input.p1_original = sim_orig.p1.meas;
  input.p2_original = sim_orig.p2.meas;
  input.p1_inverted = sim_inv.p1.meas;
  input.p2_inverted = sim_inv.p2.meas;
  input.p0_original = single_orig.p1.meas;
  input.p0_inverted = single_inv.p1.meas;
  input.t_diff_history = t_diff;
  input.base_rtt = milliseconds(cfg.rtt_ms);

  WildTestOutcome outcome;
  for (const auto& rep : reports) {
    outcome.injection += rep.injection;
    if (rep.faulted) ++outcome.faulted_phases;
    if (rep.budget_exhausted && !outcome.budget_exhausted) {
      outcome.budget_exhausted = true;
      outcome.budget_reason = rep.budget_reason;
    }
  }
  if (!outcome.budget_exhausted) {
    // A budget-stopped phase left a stump, not a measurement: skip the
    // analyses, the test's verdict is the budget outcome.
    Rng rng(cfg.seed * 2654435761ULL + 101);
    outcome.localization = core::localize(input, rng);
    outcome.localized = outcome.localization.verdict ==
                        core::Verdict::EvidenceWithinTargetArea;
  }
  if (phases_out != nullptr) *phases_out = reports;
  return outcome;
}

}  // namespace

WildTestOutcome run_wild_test(const WildConfig& cfg,
                              const std::vector<double>& t_diff) {
  return run_wild(cfg, t_diff, /*third_replay=*/false);
}

WildTestOutcome run_wild_sanity_check(const WildConfig& cfg,
                                      const std::vector<double>& t_diff) {
  return run_wild(cfg, t_diff, /*third_replay=*/true);
}

WildTestResult run_wild_test_reported(const WildConfig& cfg,
                                      const std::vector<double>& t_diff,
                                      bool sanity_check,
                                      const std::string& run_name) {
  WildTestResult out;
  // Same recorder discipline as run_full_experiment_reported: a dedicated
  // metrics recorder keeps the report's histograms populated regardless
  // of the environment; tracing follows the outer recorder.
  obs::Recorder* outer = obs::Recorder::current();
  obs::Recorder local(/*metrics_on=*/true,
                      outer != nullptr && outer->trace_on());
  std::vector<PhaseReport> phases;
  {
    obs::ScopedRecorder bind(&local);
    out.outcome = run_wild(cfg, t_diff, /*third_replay=*/sanity_check,
                           &phases);
  }

  auto& r = out.report;
  r.run = run_name;
  r.cell = cfg.isp.name;
  r.seed = cfg.seed;
  if (cfg.fault_plan != nullptr) r.fault_plan = cfg.fault_plan->name;
  if (out.outcome.budget_exhausted) {
    r.verdict = obs::kBudgetExhaustedVerdict;
    r.reason = std::string("budget:") + out.outcome.budget_reason;
  } else {
    r.verdict = core::to_string(out.outcome.localization.verdict);
    if (out.outcome.localization.verdict == core::Verdict::Inconclusive) {
      r.reason =
          core::to_string(out.outcome.localization.inconclusive_reason);
    }
  }
  // v4: a budget-stopped test never ran localize(), so its default trace
  // becomes the required empty-but-valid decision block.
  r.decision = decision_section(out.outcome.localization.trace);
  // v5: the ground truth is a pure function of the config (same
  // trace-rate expression wild_network_params consumed), and the audit
  // classifies the run exactly the way the Table-1 bench tallies it —
  // basic success = localized with the per-client mechanism, sanity
  // wrongness = asserting the per-client mechanism at all.
  const Rate trace_rate = wild_trace(cfg, /*inverted=*/false).average_rate();
  r.ground_truth = ground_truth_section(cfg, trace_rate, sanity_check);
  const bool per_client = out.outcome.localization.mechanism ==
                          core::Mechanism::PerClientThrottling;
  const bool observed_positive =
      sanity_check ? per_client : (out.outcome.localized && per_client);
  const bool mechanism_mismatch =
      !sanity_check && out.outcome.localized && !per_client;
  r.audit =
      obs::classify_audit(r.ground_truth, observed_positive,
                          mechanism_mismatch, out.outcome.budget_exhausted,
                          r.decision);
  for (std::size_t i = 0; i < phases.size(); ++i) {
    r.add_stage(wild_phase_name(kWildPhases[i]), 0, phases[i].sim_duration);
  }
  for (const auto& [kind, count] : out.outcome.injection.by_kind()) {
    r.injection[kind] = count;
  }
  r.values["localized"] = out.outcome.localized ? 1.0 : 0.0;
  // The mechanism as a scalar, so offline consumers (checkpoint resume in
  // the Table-1 bench) can rebuild per-cell tallies from journaled
  // reports without re-running the test.
  r.values["per_client"] = out.outcome.localization.mechanism ==
                                   core::Mechanism::PerClientThrottling
                               ? 1.0
                               : 0.0;
  r.values["throughput_p"] = out.outcome.localization.throughput.p_value;
  r.values["faulted_phases"] = out.outcome.faulted_phases;
  out.metrics = local.metrics();
  if (outer != nullptr) outer->absorb(std::move(local), run_name);
  return out;
}

}  // namespace wehey::experiments
