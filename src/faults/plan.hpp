// Deterministic fault injection for the WeHeY measurement pipeline.
//
// A FaultPlan is a seeded, declarative list of the operational failure
// modes documented for deployed Wehe-style tooling: replays that abort
// mid-stream, control-plane messages that are lost or delayed, measurement
// uploads that arrive truncated or corrupted, server clocks that disagree,
// and topology-database server pairs that are transiently unavailable.
//
// The plan is pure data; the FaultInjector (injector.hpp) interprets it at
// the pipeline's decision points. Everything is deterministic in
// (plan.seed, call sequence), so a chaos run is exactly reproducible and a
// robustness regression bisects like a performance one. An empty plan is
// the disabled state and costs nothing on the hot path.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/time.hpp"

namespace wehey::faults {

enum class FaultKind {
  ReplayAbort,          ///< the server process dies mid-replay
  ControlDrop,          ///< a control-plane exchange is lost
  ControlDelay,         ///< a control-plane exchange is delayed
  MeasurementTruncate,  ///< a path's uploaded series is cut short
  MeasurementCorrupt,   ///< a path's uploaded samples are garbled
  ClockSkew,            ///< one server's timestamps are offset
  TopologyUnavailable,  ///< the topology DB's pair is transiently down
  TracerouteDrop,       ///< hops in the topology query stop responding
  TracerouteGarble,     ///< a hop reports aliased (multiple) IPs
  EventStorm,           ///< a replay wedges into a retransmit livelock
};

const char* to_string(FaultKind kind);

/// One configured fault. Fields are interpreted per kind; unrelated
/// fields are ignored.
struct FaultSpec {
  FaultKind kind = FaultKind::ReplayAbort;

  /// Which path's replays/uploads the fault targets (1 or 2); 0 = any.
  int path = 0;

  /// Chance the fault fires at each opportunity (replay start, control
  /// exchange, upload, lookup). 1.0 = always.
  double probability = 1.0;

  /// How many times this fault may fire in total; -1 = unlimited.
  int count = -1;

  /// ReplayAbort: the server dies this far into the replay, as a fraction
  /// of the replay duration.
  double at_fraction = 0.5;
  /// ReplayAbort: byte offset of the abort; >= 0 overrides at_fraction.
  std::int64_t after_bytes = -1;

  /// ControlDelay: extra one-way latency. ClockSkew: the clock offset.
  Time delay = milliseconds(400);

  /// MeasurementTruncate: fraction of the series that survives the upload.
  double keep_fraction = 0.4;

  /// MeasurementCorrupt: fraction of samples garbled.
  double corrupt_fraction = 0.15;

  /// TracerouteDrop: fraction of a record's hops that stop responding
  /// (at least one hop, drawn from the tail of the path where the §3.3
  /// filters bite). TracerouteGarble ignores it (one hop per fire).
  double hop_fraction = 0.4;

  /// EventStorm: period of the livelocked timer chain. The storm starts
  /// `at_fraction` into the replay and never terminates on its own —
  /// only the supervisor's per-trial budget ends the run.
  Time storm_interval = microseconds(1);
};

struct FaultPlan {
  std::uint64_t seed = 1;
  std::string name;  ///< for logs and the robustness bench
  std::vector<FaultSpec> faults;

  bool enabled() const { return !faults.empty(); }
};

/// Names of the shipped chaos plans, in a stable order. Every name is
/// accepted by shipped_plan(); the chaos test suite and bench_robustness
/// sweep all of them.
std::vector<std::string> shipped_plan_names();

/// Build a shipped plan by name (aborts on unknown names: passing one is
/// a programming error; the set is compiled in).
FaultPlan shipped_plan(const std::string& name, std::uint64_t seed);

/// The shipped plan a front end asked for: `name_arg` and `seed_arg` (the
/// CLI's --faults / --chaos-seed values; empty = not given) override
/// WEHEY_FAULT_PLAN / WEHEY_CHAOS_SEED. An empty or "0" name means no
/// plan. The seed is a decimal integer; empty or 0 falls back to the
/// environment and then to 1. Input from outside the program is checked
/// here: an unknown plan name or a malformed seed prints the problem (and
/// the valid names) to stderr and exits with status 2.
std::optional<FaultPlan> fault_plan_from_env(
    const std::string& name_arg = {}, const std::string& seed_arg = {});

}  // namespace wehey::faults
