// Table 5: false-positive rate of the loss-trend correlation algorithm
// under *identically configured* independent rate-limiters on the two
// non-common link sequences — the paper's "ultimate FP test".
//
// Paper shape: FP close to or better than the 5% target for the TCP trace
// and all five UDP apps (1.13-3.75%).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "parallel/trials.hpp"

using namespace wehey;
using namespace wehey::experiments;

int main() {
  bench::print_header("Table 5",
                      "FP under identical rate-limiters on l1 and l2");
  obs::ObservedSweep obs_run("bench_table5_fp");
  const auto scale = run_scale();

  // WEHEY_FAULT_PLAN injects a shipped chaos plan into every trial of the
  // grid; the plan name and injection tallies land in the RunReport.
  const auto plan = faults::fault_plan_from_env();
  if (plan.has_value()) {
    obs_run.report().fault_plan = plan->name;
    std::printf("fault plan: %s (seed %llu)\n", plan->name.c_str(),
                static_cast<unsigned long long>(plan->seed));
  }

  // Build the whole grid (all apps) up front, fan the independent trials
  // over the parallel engine, then fold per-app stats in config order.
  const auto apps = evaluation_apps();
  std::vector<ScenarioConfig> configs;
  std::vector<std::size_t> app_of;  // configs[i] belongs to apps[app_of[i]]
  for (std::size_t a = 0; a < apps.size(); ++a) {
    std::uint64_t seed = 1;
    for (double factor : scale.input_rate_factors) {
      for (double queue : scale.queue_burst_factors) {
        for (std::size_t run = 0; run < scale.runs_per_config; ++run) {
          auto cfg = default_scenario(apps[a], seed++);
          cfg.placement = Placement::NonCommonLinks;
          cfg.input_rate_factor = factor;
          cfg.queue_burst_factor = queue;
          if (plan.has_value()) cfg.fault_plan = &*plan;
          configs.push_back(cfg);
          app_of.push_back(a);
        }
      }
    }
  }
  // Checkpoint resume (WEHEY_CHECKPOINT): trials journaled by a killed
  // sweep are skipped and their reports re-absorbed byte-for-byte below.
  std::vector<std::string> run_ids(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    char run_id[64];
    std::snprintf(run_id, sizeof(run_id), "bench_table5_fp.%s.r%03zu",
                  apps[app_of[i]].c_str(), i);
    run_ids[i] = run_id;
  }
  // Each trial comes back as a reported run (cell = app) so the sweep
  // aggregate carries per-app grid summaries and cross-cell percentiles.
  struct TrialResult {
    bench::DetectorOutcome outcome;
    obs::RunReport report;
    obs::MetricsRegistry metrics;
  };
  const auto results =
      parallel::parallel_map(configs.size(), [&](std::size_t i) {
        TrialResult res;
        if (obs_run.cached(run_ids[i]) != nullptr) return res;
        obs::Recorder* outer = obs::Recorder::current();
        obs::Recorder local(/*metrics_on=*/true,
                            outer != nullptr && outer->trace_on());
        {
          obs::ScopedRecorder bind(&local);
          res.outcome = bench::run_detectors(configs[i]);
        }
        const std::string& run_id = run_ids[i];
        auto& r = res.report;
        r.run = run_id;
        r.cell = apps[app_of[i]];
        r.seed = configs[i].seed;
        if (plan.has_value()) r.fault_plan = plan->name;
        r.verdict = res.outcome.loss_trend ? "common bottleneck detected"
                                           : "no common bottleneck";
        r.add_stage("sim_original", 0, res.outcome.original_duration);
        r.add_stage("sim_inverted", 0, res.outcome.inverted_duration);
        r.values["wehe_detected"] = res.outcome.wehe_detected ? 1.0 : 0.0;
        r.values["loss_trend"] = res.outcome.loss_trend ? 1.0 : 0.0;
        r.values["tomo_no_params"] =
            res.outcome.tomo_no_params ? 1.0 : 0.0;
        r.values["retx_rate"] = res.outcome.retx_rate;
        r.values["queue_delay_ms"] = res.outcome.queue_delay_ms;
        r.values["tput1_mbps"] = res.outcome.tput1_mbps;
        for (const auto& [kind, count] : res.outcome.injection.by_kind()) {
          r.injection[kind] = count;
        }
        res.metrics = local.metrics();
        if (outer != nullptr) outer->absorb(std::move(local), run_id);
        return res;
      });

  std::vector<bench::FpStats> stats(apps.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (const auto* entry = obs_run.cached(run_ids[i])) {
      const obs::JsonValue doc = obs_run.absorb_cached(*entry);
      // FP tallies come from the journaled report's scalar values.
      const obs::JsonValue* values = doc.find("values");
      const obs::JsonValue* lt =
          values != nullptr ? values->find("loss_trend") : nullptr;
      bench::DetectorOutcome cached_outcome;
      cached_outcome.loss_trend = lt != nullptr && lt->num_or(0.0) != 0.0;
      stats[app_of[i]].add(cached_outcome);
      continue;
    }
    stats[app_of[i]].add(results[i].outcome);
    obs_run.add_run(results[i].report, &results[i].metrics);
  }

  std::printf("%-9s | %-6s | %-8s | %s\n", "app", "runs", "FP rate",
              "(experiments with WeHe-confirmed differentiation)");
  std::printf("----------+--------+----------+----\n");
  for (std::size_t a = 0; a < apps.size(); ++a) {
    std::printf("%-9s | %6d | %7.2f%% |\n", apps[a].c_str(),
                stats[a].experiments, stats[a].fp_rate());
    obs_run.report().values[apps[a] + ".fp_rate"] = stats[a].fp_rate();
    obs_run.report().values[apps[a] + ".experiments"] = stats[a].experiments;
  }
  obs_run.report().verdict = "completed";
  std::printf("\npaper: TCP 1.13%%, Skype 2.5%%, WhatsApp 1.67%%, "
              "MSTeams 3.75%%, Zoom 3.27%%, Webex 2.5%% (target 5%%)\n");
  return 0;
}
