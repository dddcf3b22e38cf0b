// wehey_perfbench: the repository benchmark.
//
//   wehey_perfbench --workload <wild_table1|testbed_grid|analysis_only>
//                   --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//   wehey_perfbench --smoke-event-storm [--seed <n>]
//
// --trace 0 prints the end-to-end metrics of an untraced timed pass;
// --trace 1 runs the same timed pass, then a traced pass over the same
// inputs, and prints the per-layer metrics. Both end with one JSON line
// {"correct", "attempted", "failed", "metrics"}. Any failed correctness
// check ends the run with exit code 3 and no numbers. See README.md.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "netsim/packet.hpp"
#include "obs/runtime.hpp"
#include "parallel/thread_pool.hpp"
#include "spans.hpp"
#include "workloads.hpp"

using namespace perfbench;
namespace runtime = wehey::obs::runtime;

namespace {

/// Widest engine the benchmark asks for (the reference host has 4 cores).
constexpr unsigned kMaxWidth = 4;
/// A timing percentile needs ten samples beyond it: p90 needs 100 ops.
constexpr std::size_t kMinOps = 100;
/// Set-up repetitions per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
  bool smoke_event_storm = false;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke-event-storm") {
      a.smoke_event_storm = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value, &end, 10);
      if (*end != '\0' || a.seed == 0) return std::nullopt;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(a.seconds > 0)) return std::nullopt;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return std::nullopt;
      }
      a.trace = value[0] == '1';
    } else if (flag == "--spans") {
      a.spans_path = value;
    } else {
      return std::nullopt;
    }
  }
  if (a.workload.empty() && !a.smoke_event_storm) return std::nullopt;
  return a;
}

unsigned online_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// The workloads pin background mode, fault plan, budgets and grid scale
/// in code; a WEHEY_* knob that would change them makes the run refuse.
std::optional<std::string> env_violation(unsigned nproc) {
  for (const char* name :
       {"WEHEY_BG_MODE", "WEHEY_FAULT_PLAN", "WEHEY_TRIAL_MAX_EVENTS",
        "WEHEY_TRIAL_MAX_SIM_MS", "WEHEY_FULL", "WEHEY_RUNS_PER_CONFIG"}) {
    if (std::getenv(name) != nullptr) return std::string(name) + " is set";
  }
  if (const char* threads = std::getenv("WEHEY_THREADS")) {
    const long v = std::strtol(threads, nullptr, 10);
    if (v > static_cast<long>(nproc)) {
      return "WEHEY_THREADS=" + std::string(threads) + " exceeds nproc (" +
             std::to_string(nproc) + ")";
    }
  }
  return std::nullopt;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// VmHWM in MiB (0 where /proc is unavailable).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Host-wide CPU jiffies from /proc/stat: {steal, total}.
std::pair<double, double> cpu_jiffies() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double total = 0.0, steal = 0.0, v = 0.0;
  for (int field = 0; field < 8 && stat >> v; ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

/// Restart VmHWM at the current RSS (Linux >= 4.0); where that fails,
/// VmHWM stays the lifetime peak.
void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Linear-interpolated quantile of unsorted values.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Quantile of a runtime latency histogram (bins: underflow, buckets,
/// overflow), interpolated inside the bucket that holds it.
double hist_quantile(const runtime::HistSnapshot& h, double q) {
  if (h.count == 0 || h.bins.size() < 3) return 0.0;
  const double target = q * static_cast<double>(h.count);
  const std::size_t buckets = h.bins.size() - 2;
  const double width = (h.hi - h.lo) / static_cast<double>(buckets);
  double seen = 0.0;
  for (std::size_t i = 0; i < h.bins.size(); ++i) {
    const double n = static_cast<double>(h.bins[i]);
    if (seen + n >= target && n > 0) {
      if (i == 0) return h.min;
      if (i == h.bins.size() - 1) return h.max;
      const double lo = h.lo + width * static_cast<double>(i - 1);
      return lo + width * (target - seen) / n;
    }
    seen += n;
  }
  return h.max;
}

struct Pass {
  std::vector<OpResult> ops;
  std::vector<Span> spans;
  std::vector<double> batch_peak_rss_mb;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  /// Share of the host's CPU time the hypervisor took away (steal) during
  /// the pass: wall-clock figures sag with it, CPU figures do not.
  double steal_frac = 0.0;
  std::uint64_t start_ns = 0;
};

struct TracedOp {
  OpResult result;
  std::vector<Span> spans;
};

/// Run ops [0, n) in batches through parallel_map at `width`. With
/// `seconds` > 0, n is open-ended: whole passes run until `seconds` have
/// elapsed and at least kMinOps ops are done. `op_fn(op, spans)` runs one
/// op; `spans` is null in an untraced pass.
template <typename OpFn>
Pass run_pass(std::size_t pass_ops, std::size_t batch_ops, std::size_t n,
              double seconds, unsigned width, bool traced, OpFn&& op_fn) {
  Pass p;
  p.start_ns = wall_ns();
  const double cpu0 = process_cpu_s();
  const auto jiffies0 = cpu_jiffies();
  std::size_t done = 0;
  for (;;) {
    if (seconds > 0) {
      const double elapsed = static_cast<double>(wall_ns() - p.start_ns) / 1e9;
      if (done > 0 && done % pass_ops == 0 && elapsed >= seconds &&
          done >= kMinOps) {
        break;
      }
    } else if (done >= n) {
      break;
    }
    const std::size_t batch =
        seconds > 0 ? batch_ops : std::min(batch_ops, n - done);
    const std::size_t first = done;
    reset_peak_rss();
    auto results = wehey::parallel::parallel_map(
        batch,
        [&](std::size_t i) {
          TracedOp t;
          std::optional<OpSpans> spans;
          if (traced) spans.emplace(first + i);
          const std::uint64_t t0 = wall_ns();
          t.result = op_fn(first + i, spans ? &*spans : nullptr);
          t.result.wall_ms = static_cast<double>(wall_ns() - t0) / 1e6;
          if (spans) t.spans = spans->spans();
          return t;
        },
        width);
    for (auto& t : results) {
      p.ops.push_back(std::move(t.result));
      p.spans.insert(p.spans.end(), t.spans.begin(), t.spans.end());
    }
    p.batch_peak_rss_mb.push_back(peak_rss_mb());
    done += batch;
  }
  p.wall_s = static_cast<double>(wall_ns() - p.start_ns) / 1e9;
  p.cpu_s = process_cpu_s() - cpu0;
  const auto jiffies1 = cpu_jiffies();
  p.steal_frac = ratio(jiffies1.first - jiffies0.first,
                       jiffies1.second - jiffies0.second);
  return p;
}

void require(bool ok, const std::string& what) {
  if (!ok) throw CheckFailure(what);
}

/// op-by-op agreement of verdicts and exact counts.
void require_same(const std::vector<OpResult>& a,
                  const std::vector<OpResult>& b, const std::string& what) {
  require(a.size() <= b.size(), what + ": op count");
  for (std::size_t i = 0; i < a.size(); ++i) {
    require(a[i].same_outcome(b[i]),
            what + ": op " + std::to_string(i) + " differs");
  }
}

/// Digest of the verdicts and exact counts of `ops`, chained onto `seed`.
std::uint64_t outcome_digest(const std::vector<OpResult>& ops,
                             std::uint64_t seed) {
  Digest d;
  d.add(&seed, sizeof(seed));
  for (const auto& r : ops) {
    const std::int64_t fields[] = {r.verdict, r.mechanism, r.threw,
                                   static_cast<std::int64_t>(r.counts.sim_time)};
    d.add(fields, sizeof(fields));
    const Counts& c = r.counts;
    const std::uint64_t counts[] = {c.events, c.hops, c.drops, c.flows,
                                    c.retx, c.rto, c.heap_depth_peak};
    d.add(counts, sizeof(counts));
  }
  return d.h;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Per span name: summed wall and thread-CPU nanoseconds.
struct SpanTotals {
  double wall_ns = 0.0;
  double cpu_ns = 0.0;
};

std::map<std::string, SpanTotals> span_totals(const std::vector<Span>& spans) {
  std::map<std::string, SpanTotals> out;
  for (const Span& s : spans) {
    auto& t = out[s.name];
    t.wall_ns += static_cast<double>(s.end_ns - s.start_ns);
    t.cpu_ns += static_cast<double>(s.cpu_ns);
  }
  return out;
}

/// The per-layer metrics of a traced run. `sims` holds the simulations the
/// traced pass decomposed into phases, with their spans (the ops
/// themselves, or analysis_only's pool); `traced` is the traced pass over
/// the ops.
std::vector<Metric> per_layer_metrics(const Pass& timed, const Pass& traced,
                                      const Pass& sims,
                                      const runtime::RuntimeSnapshot& engine,
                                      double active_overhead) {
  const double n_sims = static_cast<double>(std::max<std::size_t>(
      1, sims.ops.size()));
  const double n_ops = static_cast<double>(traced.ops.size());
  Counts sum;
  for (const auto& r : sims.ops) {
    sum.events += r.counts.events;
    sum.hops += r.counts.hops;
    sum.drops += r.counts.drops;
    sum.flows += r.counts.flows;
    sum.retx += r.counts.retx;
    sum.rto += r.counts.rto;
    sum.heap_depth_peak = std::max(sum.heap_depth_peak, r.counts.heap_depth_peak);
    sum.sim_time += r.counts.sim_time;
  }
  const auto sim_layers = span_totals(sims.spans);
  const auto op_layers = span_totals(traced.spans);
  const auto get = [](const std::map<std::string, SpanTotals>& m,
                      const char* name) {
    const auto it = m.find(name);
    return it != m.end() ? it->second : SpanTotals{};
  };
  const SpanTotals phase = get(sim_layers, "experiments.phase");
  const SpanTotals sim_op = get(sim_layers, "op");
  const SpanTotals report = get(sim_layers, "obs.report");
  const SpanTotals localize = get(op_layers, "core.localize");
  const SpanTotals op = get(op_layers, "op");
  const double packet_bytes = sizeof(wehey::netsim::Packet);
  const double events = static_cast<double>(sum.events);
  const double sim_s = static_cast<double>(sum.sim_time) /
                       static_cast<double>(wehey::seconds(1));
  const double timed_cpu_per_op =
      ratio(timed.cpu_s, static_cast<double>(timed.ops.size()));
  const double traced_cpu_per_op = ratio(traced.cpu_s, n_ops);
  return {
      {"netsim.events_per_op", events / n_sims, "count"},
      {"netsim.hops_per_op", static_cast<double>(sum.hops) / n_sims, "count"},
      {"netsim.events_per_hop", ratio(events, static_cast<double>(sum.hops)),
       "event/hop"},
      {"netsim.cpu_ns_per_event", ratio(phase.cpu_ns, events), "ns"},
      {"netsim.packet_bytes", packet_bytes, "B"},
      {"netsim.bytes_moved_per_op", packet_bytes * events / n_sims, "B"},
      {"netsim.heap_depth_peak", static_cast<double>(sum.heap_depth_peak),
       "count"},
      {"netsim.drops_per_op", static_cast<double>(sum.drops) / n_sims, "count"},
      {"transport.flows_per_op", static_cast<double>(sum.flows) / n_sims,
       "count"},
      {"transport.retx_per_op", static_cast<double>(sum.retx) / n_sims,
       "count"},
      {"transport.rto_per_op", static_cast<double>(sum.rto) / n_sims, "count"},
      {"experiments.phase_ms", phase.wall_ns / 1e6 / n_sims, "ms"},
      {"experiments.phase_share", ratio(phase.wall_ns, sim_op.wall_ns),
       "fraction"},
      {"experiments.sim_s_per_cpu_s", ratio(sim_s, phase.cpu_ns / 1e9), "s/s"},
      {"core.localize_ms", localize.wall_ns / 1e6 / n_ops, "ms"},
      {"core.localize_share", ratio(localize.wall_ns, op.wall_ns), "fraction"},
      {"core.wehe_ms", get(op_layers, "core.wehe").wall_ns / 1e6 / n_ops,
       "ms"},
      {"core.throughput_ms",
       get(op_layers, "core.throughput").wall_ns / 1e6 / n_ops, "ms"},
      {"core.loss_corr_ms",
       get(op_layers, "core.loss_corr").wall_ns / 1e6 / n_ops, "ms"},
      {"parallel.efficiency", engine.parallel_efficiency, "fraction"},
      {"parallel.imbalance", engine.worker_imbalance, "ratio"},
      {"parallel.wait_fraction", engine.wait_fraction, "fraction"},
      {"parallel.submit_p99_us", hist_quantile(engine.submit_to_start_us, 0.99),
       "us"},
      {"obs.active_overhead", active_overhead, "fraction"},
      {"obs.report_ms_per_op", report.wall_ns / 1e6 / n_sims, "ms"},
      {"bench.trace_overhead", ratio(traced_cpu_per_op, timed_cpu_per_op) - 1.0,
       "fraction"},
  };
}

/// The traced part of a --trace 1 run: the first whole passes covering
/// kMinOps ops again, driven through their public steps with spans (after
/// analysis_only's pool simulations), on the engine with telemetry on;
/// then the active-overhead sample. Checks every traced op against the
/// untraced pass, writes the spans to `spans_path`, and returns the
/// per-layer metrics.
std::vector<Metric> traced_run(const Workload& w, const Pass& timed,
                               unsigned width, const std::string& spans_path) {
  ReportSink sink;
  Pass pool_pass;
  const auto* pool = w.pool();
  if (pool != nullptr) {
    pool_pass = run_pass(pool->size(), pool->size(), pool->size(), 0, width,
                         true, [&](std::size_t k, OpSpans* spans) {
                           return run_traced_sim((*pool)[k].sim, *spans, sink);
                         });
    std::vector<OpResult> refs;
    for (const auto& e : *pool) refs.push_back(e.reference);
    require_same(pool_pass.ops, refs, "traced pool simulation vs whole op");
  }
  const std::size_t traced_n =
      (kMinOps + w.pass_ops() - 1) / w.pass_ops() * w.pass_ops();
  runtime::reset();
  runtime::set_enabled(true);
  const Pass traced = run_pass(w.pass_ops(), w.batch_ops(), traced_n, 0,
                               width, true, [&](std::size_t op, OpSpans* spans) {
                                 return w.run_traced(op, *spans, sink);
                               });
  const runtime::RuntimeSnapshot engine = runtime::snapshot();
  runtime::set_enabled(false);
  require_same(traced.ops, timed.ops, "traced op vs untraced whole op");

  // obs.active_overhead: CPU of the reported op over the bare op, one op
  // at a time on a sample.
  const std::vector<SimOp> overhead = w.overhead_sample();
  double cpu0 = process_cpu_s();
  for (const auto& sim : overhead) run_whole(sim);
  const double reported_cpu = process_cpu_s() - cpu0;
  cpu0 = process_cpu_s();
  for (const auto& sim : overhead) run_bare(sim);
  const double bare_cpu = process_cpu_s() - cpu0;

  std::vector<SpanGroup> groups = {{"ops", &traced.spans}};
  if (pool != nullptr) groups.push_back({"pool simulations", &pool_pass.spans});
  const std::uint64_t origin =
      pool != nullptr ? pool_pass.start_ns : traced.start_ns;
  if (!write_spans(spans_path, groups, origin)) {
    throw std::runtime_error("could not write spans to " + spans_path);
  }
  std::printf("spans written to %s\n", spans_path.c_str());
  return per_layer_metrics(timed, traced, pool != nullptr ? pool_pass : traced,
                           engine, ratio(reported_cpu, bare_cpu) - 1.0);
}

void print_result(const std::vector<Metric>& metrics, std::size_t attempted,
                  std::size_t failed) {
  for (const auto& m : metrics) {
    std::printf("%-30s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int smoke_event_storm(std::uint64_t seed) {
  // Failure accounting: a wild op under the shipped event-storm plan must
  // exhaust its default trial budget and count as a failed op.
  const OpResult r = run_event_storm_op(seed);
  const std::size_t failed = r.failed() ? 1 : 0;
  if (failed != 1) {
    std::fprintf(stderr,
                 "perfbench: event-storm op was not counted as failed "
                 "(verdict %d)\n",
                 r.verdict);
    return 3;
  }
  std::printf("event-storm op counted as failed (verdict %d)\n", r.verdict);
  print_result({{"op_fail_frac", 1.0, "fraction"}}, 1, failed);
  return 0;
}

int run(const Args& args, std::uint64_t process_start_ns) {
  const unsigned nproc = online_cpus();
  if (const auto why = env_violation(nproc)) {
    std::fprintf(stderr, "perfbench: refusing to start: %s\n", why->c_str());
    return 2;
  }
  // parallel_map never runs wider than the process-wide pool.
  const unsigned width =
      std::min({kMaxWidth, nproc, wehey::parallel::ThreadPool::global().size()});
  if (args.smoke_event_storm) return smoke_event_storm(args.seed);

  auto workload = make_workload(args.workload, args.seed, width);
  if (!workload) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  Workload& w = *workload;

  // Set-up, repeated: the first repetition is timed from process start,
  // and every repetition must build bit-identical inputs.
  std::vector<double> setup_s;
  std::uint64_t setup_digest = 0;
  for (int rep = 0; rep < (args.trace ? 1 : kSetupRepeats); ++rep) {
    const std::uint64_t t0 = rep == 0 ? process_start_ns : wall_ns();
    const std::uint64_t digest = w.setup();
    setup_s.push_back(static_cast<double>(wall_ns() - t0) / 1e9);
    require(rep == 0 || digest == setup_digest,
            "set-up repetition " + std::to_string(rep) +
                " built different inputs");
    setup_digest = digest;
  }

  const auto untraced = [&w](std::size_t op, OpSpans*) { return w.run(op); };
  const Pass timed = run_pass(w.pass_ops(), w.batch_ops(), 0, args.seconds,
                              width, false, untraced);

  // Width 1 against the measured width on a sample of ops.
  const std::vector<std::size_t> sample = w.width_sample();
  {
    const auto serial = wehey::parallel::parallel_map(
        sample.size(), [&](std::size_t i) { return w.run(sample[i]); }, 1);
    for (std::size_t i = 0; i < sample.size(); ++i) {
      require(serial[i].same_outcome(timed.ops[sample[i]]),
              "op " + std::to_string(sample[i]) +
                  " differs between width 1 and width " +
                  std::to_string(width));
    }
  }
  // analysis_only reproduces the verdicts of the simulations behind its
  // inputs.
  for (std::size_t i = 0; i < timed.ops.size(); ++i) {
    if (const OpResult* ref = w.reference(i)) {
      require(timed.ops[i].verdict == ref->verdict &&
                  timed.ops[i].mechanism == ref->mechanism,
              "analysis op " + std::to_string(i) +
                  " does not reproduce its simulation's verdict");
    }
  }

  const std::size_t n = timed.ops.size();
  std::size_t failed = 0, tp_tn = 0, audited = 0;
  std::vector<double> wall_ms;
  for (const auto& r : timed.ops) {
    failed += r.failed();
    wall_ms.push_back(r.wall_ms);
    if (r.audit == "tp" || r.audit == "tn" || r.audit == "fp" ||
        r.audit == "fn") {
      ++audited;
      tp_tn += r.audit == "tp" || r.audit == "tn";
    }
  }
  const std::vector<OpResult> first_pass(timed.ops.begin(),
                                         timed.ops.begin() + w.pass_ops());
  const std::uint64_t digest = outcome_digest(first_pass, setup_digest);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", quantile(setup_s, 0.5), "s"},
        {"ops_per_s", static_cast<double>(n) / timed.wall_s, "1/s"},
        {"cpu_ms_per_op", timed.cpu_s * 1e3 / static_cast<double>(n), "ms"},
        {"op_wall_p50_ms", quantile(wall_ms, 0.5), "ms"},
        {"op_wall_p90_ms", quantile(wall_ms, 0.9), "ms"},
        {"peak_rss_mb", quantile(timed.batch_peak_rss_mb, 0.5), "MB"},
        {"accuracy", ratio(static_cast<double>(tp_tn),
                           static_cast<double>(audited)),
         "fraction"},
    };
  } else {
    metrics = traced_run(w, timed, width, args.spans_path.empty()
                                              ? args.workload + ".spans.json"
                                              : args.spans_path);
  }

  std::printf(
      "{\"perfbench\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"width\": %u, \"nproc\": %u, \"compiler\": \"%s\", \"build_type\": "
      "\"%s\", \"packet_bytes\": %zu, \"ops\": %zu, \"passes\": %zu, "
      "\"op_fail_frac\": %.6f, \"steal_frac\": %.4f, \"outcome_digest\": "
      "\"%016llx\"}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.trace ? 1 : 0, width, nproc, WEHEY_PERFBENCH_COMPILER,
      WEHEY_PERFBENCH_BUILD_TYPE, sizeof(wehey::netsim::Packet), n,
      n / w.pass_ops(), static_cast<double>(failed) / static_cast<double>(n),
      timed.steal_frac, static_cast<unsigned long long>(digest));
  print_result(metrics, n, failed);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t process_start_ns = wall_ns();
  const auto args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: wehey_perfbench --workload "
                 "<wild_table1|testbed_grid|analysis_only> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans <path>]\n"
                 "       wehey_perfbench --smoke-event-storm [--seed <n>]\n");
    return 2;
  }
  try {
    return run(*args, process_start_ns);
  } catch (const CheckFailure& e) {
    std::fprintf(stderr, "perfbench: correctness check failed: %s\n",
                 e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
