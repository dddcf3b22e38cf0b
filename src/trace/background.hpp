// Synthetic background traffic standing in for the CAIDA equinix-chicago
// trace segments used in §6.1 ("average rate 168 Mbps with ~400 active TCP
// flows every second", replayed at the application layer).
//
// We generate a flow-level workload with Poisson flow arrivals and
// heavy-tailed (log-normal body + Pareto tail) flow sizes, which matches
// the well-known mix of short mice and long elephants in backbone traces.
// Flows are handed to real TCP senders in the simulator, so their packet
// dynamics (burstiness, loss response) come from congestion control, just
// like the paper's application-layer replay.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "common/units.hpp"

namespace wehey::trace {

/// One background TCP flow: starts at `start`, transfers `bytes`.
struct BackgroundFlow {
  Time start = 0;
  std::int64_t bytes = 0;
  bool differentiated = false;  ///< assigned dscp=1 (same class as the
                                ///< original trace) by the scenario
};

struct BackgroundConfig {
  Rate target_rate = mbps(20);  ///< long-run average offered load
  Time duration = seconds(60);
  double flows_per_second = 40;   ///< Poisson arrival rate (before modulation)
  double pareto_tail_prob = 0.1;  ///< fraction of flows drawn from the tail
  double pareto_shape = 1.3;      ///< heavy tail (infinite variance) like
                                  ///< measured internet flow sizes
  /// Long-timescale intensity modulation: real backbone traffic is
  /// self-similar, with offered load trending up and down over seconds —
  /// the very arrival-rate trend loss-trend correlation keys on. The
  /// arrival intensity is multiplied by a piecewise-constant lognormal
  /// factor redrawn every `modulation_period` (0 sigma disables).
  double modulation_sigma = 0.8;
  Time modulation_period = seconds(2);
};

/// Generate a background workload. The size distribution is scaled so the
/// expected aggregate offered rate matches `cfg.target_rate`.
std::vector<BackgroundFlow> generate_background(const BackgroundConfig& cfg,
                                                Rng& rng);

/// Mark a uniformly-random `fraction` of the flows as differentiated
/// (directed through the rate-limiter together with the original trace,
/// per §6.1 "% of background").
void mark_differentiated(std::vector<BackgroundFlow>& flows, double fraction,
                         Rng& rng);

/// Total bytes across all flows.
std::int64_t total_bytes(const std::vector<BackgroundFlow>& flows);

/// The carrier of a scenario's background aggregate. Packet flows are the
/// only carrier; the enum and the `bg_mode` config fields that hold it
/// remain so existing callers that pin the carrier keep compiling.
enum class BackgroundMode { kPacket };

}  // namespace wehey::trace
