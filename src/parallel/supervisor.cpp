#include "parallel/supervisor.hpp"

#include <cstdint>
#include <cstdlib>

namespace wehey::parallel {
namespace {

constexpr std::uint64_t kDefaultMaxEvents = 20'000'000;
constexpr Time kDefaultMaxSimTime = Time{3'600'000} * kMillisecond;

/// Non-negative integer env var; `fallback` when unset or unparseable.
std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || raw[0] == 0) return fallback;
  char* after = nullptr;
  const unsigned long long v = std::strtoull(raw, &after, 10);
  if (after == raw || *after != 0) return fallback;
  return static_cast<std::uint64_t>(v);
}

}  // namespace

netsim::TrialBudget trial_budget_from_env() {
  netsim::TrialBudget budget;
  budget.max_events = env_u64("WEHEY_TRIAL_MAX_EVENTS", kDefaultMaxEvents);
  budget.max_sim_time =
      static_cast<Time>(env_u64(
          "WEHEY_TRIAL_MAX_SIM_MS",
          static_cast<std::uint64_t>(kDefaultMaxSimTime / kMillisecond))) *
      kMillisecond;
  return budget;
}

void install_trial_budget(netsim::Simulator& sim) {
  sim.set_trial_budget(trial_budget_from_env());
}

}  // namespace wehey::parallel
