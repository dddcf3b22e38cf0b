// The worker-thread budget, read by the parallel engine (pool size) and
// the runtime telemetry sidecar ("threads.configured"), which sits below
// it in the link order.
#pragma once

namespace wehey {

/// WEHEY_THREADS if set to a positive integer, else
/// std::thread::hardware_concurrency() (at least 1). Read once and cached
/// — safe to call from any thread afterwards.
unsigned configured_threads();

}  // namespace wehey
