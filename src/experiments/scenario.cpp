#include "experiments/scenario.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/log.hpp"
#include "experiments/decision.hpp"
#include "experiments/ground_truth.hpp"
#include "faults/injector.hpp"
#include "obs/recorder.hpp"
#include "parallel/supervisor.hpp"
#include "parallel/thread_pool.hpp"
#include "trace/apps.hpp"
#include "trace/background.hpp"

namespace wehey::experiments {
namespace {

constexpr Time kSecondReplayOffset = milliseconds(5);  // back-to-back start
constexpr Time kDrainGrace = seconds(3);

/// The original app trace of this scenario — a pure function of the seed,
/// so every phase replays the same recorded session.
trace::AppTrace base_trace(const ScenarioConfig& cfg) {
  Rng trace_rng(cfg.seed * 0x9e3779b9ULL + 17);
  const auto& tcp_apps = trace::tcp_app_names();
  if (std::find(tcp_apps.begin(), tcp_apps.end(), cfg.app) !=
      tcp_apps.end()) {
    return trace::make_tcp_app_trace(cfg.app, cfg.base_trace_duration,
                                     trace_rng);
  }
  return trace::make_udp_app_trace(cfg.app, cfg.base_trace_duration,
                                   trace_rng);
}

/// Apply the §3.4 replay preparation: extension to the replay duration
/// and, for UDP under `modified`, Poisson re-timing. (TCP's pacing is a
/// sender knob, not a trace transform.)
trace::AppTrace prepare(const trace::AppTrace& t, const ScenarioConfig& cfg,
                        Rng& rng) {
  trace::AppTrace out = trace::extend(t, cfg.replay_duration);
  if (cfg.modified_traces && out.transport == trace::Transport::Udp) {
    out = trace::poissonize(out, rng);
  }
  return out;
}

transport::TcpConfig replay_tcp_config(const ScenarioConfig& cfg) {
  transport::TcpConfig tcp;
  tcp.pacing = cfg.modified_traces;
  tcp.cc = cfg.tcp_cc;
  return tcp;
}

std::uint64_t phase_seed(const ScenarioConfig& cfg, Phase phase) {
  return cfg.seed * 1000003ULL + static_cast<std::uint64_t>(phase) * 7919ULL;
}

/// Phase-local injector: each phase interprets the plan with its own
/// derived seed, so the four phases fault independently but
/// reproducibly.
faults::FaultInjector phase_injector(const faults::FaultPlan* plan,
                                     std::uint64_t phase_seed_value) {
  if (plan == nullptr || !plan->enabled()) return faults::FaultInjector{};
  faults::FaultPlan derived = *plan;
  derived.seed = plan->seed * 0x100000001b3ULL ^ phase_seed_value;
  return faults::FaultInjector(derived);
}

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::SimOriginal: return "sim_original";
    case Phase::SimInverted: return "sim_inverted";
    case Phase::SingleOriginal: return "single_original";
    case Phase::SingleInverted: return "single_inverted";
  }
  return "?";
}

/// Arm the network's one-shot cut and/or storm if the injector faults
/// this replay.
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

ScenarioDerived derive(const ScenarioConfig& cfg) {
  ScenarioDerived d;
  const auto t = base_trace(cfg);
  d.trace_rate = t.average_rate();
  WEHEY_EXPECTS(d.trace_rate > 0);
  d.per_path_input = d.trace_rate + cfg.bg_rate_per_path;

  const Time rtt1 = milliseconds(cfg.rtt1_ms);
  const Time rtt2 = milliseconds(cfg.rtt2_ms);
  const Time max_rtt = std::max(rtt1, rtt2);

  d.net.rtt1 = rtt1;
  d.net.rtt2 = rtt2;
  d.net.placement = cfg.placement;
  // Non-common links: utilization knob of Table 2 ("input traffic / link
  // bandwidth"); the common link always has ample headroom so that, when
  // unthrottled, it never bottlenecks by itself.
  // As with the rate-limiter pressure below, the utilization knob is an
  // *offered*-load ratio; elastic traffic self-limits, so the realized
  // ratio the paper's testbed saw was milder. Compress above 0.5 so that
  // 0.95/1.05/1.15 map to hot-but-not-collapsed links (the regime where
  // the paper reports FN of ~19-35% for TCP and ~0 for UDP).
  double util = cfg.nc_utilization;
  if (util > 0.5) util = 0.5 + (util - 0.5) * 0.5;
  d.net.bw_nc1 = d.per_path_input / util;
  d.net.bw_nc2 = d.per_path_input / util;
  // Carrier-grade links buffer deeply (~150 ms): bursts are absorbed as
  // queueing delay rather than as independent per-path loss, keeping the
  // common rate-limiter the dominant loss cause until the links are
  // genuinely saturated.
  d.net.fifo_limit_bytes =
      static_cast<std::int64_t>(bytes_in(d.net.bw_nc1, milliseconds(150)));
  d.net.bw_c = 2.0 * d.per_path_input / 0.2;

  // Rate-limiter sizing: the differentiated class's offered load during
  // the simultaneous original replay, divided by the Table-2 arrival
  // factor. With the limiter on the common link both traces and both
  // paths' differentiated background hit one box; on the non-common links
  // each of the two identical boxes sees one path's worth.
  //
  // Calibration: the paper set rate and queue "so as to achieve a target
  // average loss rate and queuing delay", with input *arriving* at
  // 1.3-2.5x the rate — but a mostly-TCP input is elastic and cannot
  // sustain such arrival ratios; its offered load self-limits. Dividing
  // the open-loop offered load by the raw factor therefore over-throttles
  // relative to the paper's realized conditions (Figure 5a: retx rates of
  // ~1-15%). Compressing the pressure range maps the Table-2 factors onto
  // that same realized envelope.
  // UDP traces are open-loop and genuinely sustain the configured arrival
  // ratio, so they use the raw factor.
  const double pressure =
      t.transport == trace::Transport::Tcp
          ? 1.0 + (cfg.input_rate_factor - 1.0) * 0.55
          : cfg.input_rate_factor;
  // The limiter is sized once, for the *default* background mix (bold
  // value in Table 2). Â§6.3's severe-throttling experiments then direct a
  // larger fraction of the background through the same limiter, genuinely
  // overloading it â which is how the paper reaches >20% retransmission
  // rates with the same rate-limiter configuration.
  const Rate diff_per_path = d.trace_rate + 0.5 * cfg.bg_rate_per_path;
  if (cfg.placement == Placement::CommonLink) {
    d.limiter_rate = 2.0 * diff_per_path / pressure;
    d.net.limiter =
        make_limiter(d.limiter_rate, max_rtt, cfg.queue_burst_factor);
  } else if (cfg.placement == Placement::NonCommonLinks) {
    d.limiter_rate = diff_per_path / pressure;
    d.net.limiter =
        make_limiter(d.limiter_rate, max_rtt, cfg.queue_burst_factor);
  } else if (cfg.placement == Placement::PerFlowCommonLink) {
    // Per-flow throttling: every differentiated flow gets its own bucket,
    // each sized against one replay's offered rate.
    d.limiter_rate = d.trace_rate / pressure;
    d.net.limiter =
        make_limiter(d.limiter_rate, max_rtt, cfg.queue_burst_factor);
  }
  return d;
}

PhaseReport run_phase(const ScenarioConfig& cfg, Phase phase) {
  const auto derived = derive(cfg);
  Rng rng(phase_seed(cfg, phase));
  auto injector = phase_injector(cfg.fault_plan, phase_seed(cfg, phase));

  netsim::Simulator sim;
  parallel::install_trial_budget(sim);
  FigureOneNetwork net(sim, derived.net, rng);

  // Background workloads (a fresh CAIDA-like segment per phase, as each
  // replay in the paper draws a different trace segment).
  trace::BackgroundConfig bg;
  bg.target_rate = cfg.bg_rate_per_path;
  bg.duration = cfg.replay_duration + kDrainGrace;
  // ~1.2 arrivals/s per Mbps gives a mice/elephant mix whose aggregate is
  // congestion-responsive (like CAIDA's), rather than a hail of
  // slow-start-only mice.
  bg.flows_per_second =
      std::max(1.5, cfg.bg_rate_per_path / mbps(1.0) * 1.2);
  for (int path = 1; path <= 2; ++path) {
    auto flows = trace::generate_background(bg, rng);
    trace::mark_differentiated(flows, cfg.bg_diff_fraction, rng);
    net.attach_background(path, flows);
  }

  // Replay traces.
  const bool original =
      phase == Phase::SimOriginal || phase == Phase::SingleOriginal;
  const bool simultaneous =
      phase == Phase::SimOriginal || phase == Phase::SimInverted;

  trace::AppTrace t = base_trace(cfg);
  if (!original) t = trace::bit_invert(t);

  const trace::AppTrace replay1 = prepare(t, cfg, rng);

  // The §7 same-flow countermeasure: both replays carry one flow key so a
  // per-flow policer assigns them to the same bucket.
  const netsim::FlowId spoofed_key =
      cfg.spoof_same_flow ? netsim::FlowId{0xBEEF} : netsim::FlowId{0};

  int id1 = 0, id2 = 0;
  if (replay1.transport == trace::Transport::Tcp) {
    const auto tcp = replay_tcp_config(cfg);
    arm_replay_cut(injector, net, 1, cfg.replay_duration);
    id1 = net.start_tcp_replay(1, replay1, 0, tcp, cfg.tcp_connections,
                               spoofed_key);
    if (simultaneous) {
      arm_replay_cut(injector, net, 2, cfg.replay_duration);
      id2 = net.start_tcp_replay(2, replay1, kSecondReplayOffset, tcp,
                                 cfg.tcp_connections, spoofed_key);
    }
  } else {
    arm_replay_cut(injector, net, 1, cfg.replay_duration);
    id1 = net.start_udp_replay(1, replay1, 0, spoofed_key);
    if (simultaneous) {
      // Independent Poisson re-timing per path (two servers re-time their
      // replays independently).
      const trace::AppTrace replay2 = prepare(t, cfg, rng);
      arm_replay_cut(injector, net, 2, cfg.replay_duration);
      id2 = net.start_udp_replay(2, replay2, kSecondReplayOffset,
                                 spoofed_key);
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
    // The uploads of this phase's measurements to the gathering server
    // pass through the injector (truncation, corruption, clock skew).
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
      rec->timeline().span(phase_name(phase), "phase", 0, sim.now());
    }
  }
  return rep;
}

namespace {

constexpr Phase kFullPhases[] = {Phase::SimOriginal, Phase::SimInverted,
                                 Phase::SingleOriginal,
                                 Phase::SingleInverted};

/// The four phases are independent simulations (each rebuilds the network
/// from cfg with its own phase seed), so they run concurrently when the
/// parallel engine has idle contexts; from inside an outer grid sweep
/// this degrades to the serial loop.
std::vector<PhaseReport> run_all_phases(const ScenarioConfig& cfg) {
  return parallel::parallel_map(
      4, [&](std::size_t i) { return run_phase(cfg, kFullPhases[i]); });
}

core::LocalizationInput assemble_input(
    const std::vector<PhaseReport>& reports, const ScenarioConfig& cfg,
    const std::vector<double>& t_diff_history) {
  core::LocalizationInput input;
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
  input.t_diff_history = t_diff_history;
  input.base_rtt =
      std::max(milliseconds(cfg.rtt1_ms), milliseconds(cfg.rtt2_ms));
  return input;
}

}  // namespace

core::LocalizationInput run_full_experiment(
    const ScenarioConfig& cfg, const std::vector<double>& t_diff_history) {
  return assemble_input(run_all_phases(cfg), cfg, t_diff_history);
}

FullExperimentResult run_full_experiment_reported(
    const ScenarioConfig& cfg, const std::vector<double>& t_diff_history,
    const std::string& run_name) {
  FullExperimentResult out;
  // A dedicated recorder guarantees populated histograms in the report
  // even when the environment has observation off. Tracing stays tied to
  // the outer recorder: spans are only worth collecting if someone will
  // write them out.
  obs::Recorder* outer = obs::Recorder::current();
  obs::Recorder local(/*metrics_on=*/true,
                      outer != nullptr && outer->trace_on());
  std::vector<PhaseReport> reports;
  {
    obs::ScopedRecorder bind(&local);
    reports = run_all_phases(cfg);
  }
  out.input = assemble_input(reports, cfg, t_diff_history);

  // First exhausted phase in kFullPhases order (reports are indexed by
  // phase, so this is deterministic regardless of completion order).
  bool budget_exhausted = false;
  std::string budget_reason;
  for (const auto& rep : reports) {
    if (!rep.budget_exhausted) continue;
    budget_exhausted = true;
    budget_reason = rep.budget_reason;
    break;
  }
  if (!budget_exhausted) {
    Rng analysis_rng(cfg.seed * 2654435761ULL + 9);
    out.localization = core::localize(out.input, analysis_rng);
  }
  // A budget-stopped phase yields a truncated measurement, not evidence:
  // the run's verdict is the machine-readable budget outcome and the
  // analyses never see the stump.

  auto& r = out.report;
  r.run = run_name;
  r.seed = cfg.seed;
  if (cfg.fault_plan != nullptr) r.fault_plan = cfg.fault_plan->name;
  r.verdict = budget_exhausted ? obs::kBudgetExhaustedVerdict
                               : core::to_string(out.localization.verdict);
  if (budget_exhausted) {
    r.reason = std::string("budget:") + budget_reason;
  } else if (out.localization.verdict == core::Verdict::Inconclusive) {
    r.reason = core::to_string(out.localization.inconclusive_reason);
  }
  // v4: budget-exhausted runs skipped localize() and keep the default
  // trace — the empty-but-valid decision block.
  r.decision = decision_section(out.localization.trace);
  // v5: ground truth from the limiter placement the scenario configured;
  // the audit scores the within-target-area verdict against it.
  r.ground_truth = ground_truth_section(cfg, derive(cfg));
  r.audit = obs::classify_audit(
      r.ground_truth,
      !budget_exhausted &&
          out.localization.verdict == core::Verdict::EvidenceWithinTargetArea,
      /*mechanism_mismatch=*/false, budget_exhausted, r.decision);
  faults::InjectionStats injection;
  std::uint64_t limiter_drops = 0;
  int phases_faulted = 0;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    r.add_stage(phase_name(kFullPhases[i]), 0, reports[i].sim_duration);
    injection += reports[i].injection;
    limiter_drops += reports[i].limiter_drops;
    if (reports[i].faulted) ++phases_faulted;
  }
  for (const auto& [kind, count] : injection.by_kind()) {
    r.injection[kind] = count;
  }
  r.values["limiter_drops"] = static_cast<double>(limiter_drops);
  r.values["phases_faulted"] = phases_faulted;
  r.values["degraded"] = out.localization.degraded ? 1.0 : 0.0;
  out.metrics = local.metrics();
  if (outer != nullptr) outer->absorb(std::move(local), run_name);
  return out;
}

SimultaneousResult run_simultaneous_experiment(const ScenarioConfig& cfg) {
  SimultaneousResult res;
  auto reports = parallel::parallel_map(2, [&](std::size_t i) {
    return run_phase(cfg, i == 0 ? Phase::SimOriginal : Phase::SimInverted);
  });
  res.original = std::move(reports[0]);
  res.inverted = std::move(reports[1]);
  res.p1_confirmation = core::detect_differentiation(res.original.p1.meas,
                                                     res.inverted.p1.meas);
  res.p2_confirmation = core::detect_differentiation(res.original.p2.meas,
                                                     res.inverted.p2.meas);
  res.differentiation_confirmed = res.p1_confirmation.differentiation &&
                                  res.p2_confirmation.differentiation;
  return res;
}

}  // namespace wehey::experiments
