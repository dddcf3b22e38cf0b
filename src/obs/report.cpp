#include "obs/report.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include <cmath>

#include "obs/aggregate.hpp"
#include "obs/timeline.hpp"

namespace wehey::obs {

AuditSection classify_audit(const GroundTruthSection& truth,
                            bool observed_positive, bool mechanism_mismatch,
                            bool budget_exhausted,
                            const DecisionSection& decision) {
  AuditSection audit;
  if (!truth.present) return audit;
  audit.present = true;
  // A perfect localizer reports "evidence within the target area" exactly
  // when a differentiating limiter sits at/behind the convergence point —
  // unless a sanity-check third flow shares it, in which case the
  // per-client conclusion is the wrong one by construction (§5).
  audit.expected_positive = truth.differentiated &&
                            truth.within_target_area && !truth.sanity_check;
  audit.observed_positive = observed_positive;
  if (budget_exhausted) {
    // No analyzable verdict: excluded from the confusion ratios, never
    // counted for or against accuracy.
    audit.classification = "skipped";
    audit.mismatch_reason = "budget-exhausted";
    return audit;
  }
  if (audit.expected_positive) {
    audit.classification = observed_positive ? "tp" : "fn";
  } else {
    audit.classification = observed_positive ? "fp" : "tn";
  }
  if (observed_positive == audit.expected_positive) return audit;
  // Mismatch provenance, most-specific first. The sub-margin case shares
  // its threshold with the sweep knife-edge gate, so a "sub-margin-miss"
  // run is exactly one the gate would flag rather than fail.
  if (mechanism_mismatch) {
    audit.mismatch_reason = "mechanism-mismatch";
  } else if (!decision.evaluated) {
    audit.mismatch_reason = "not-evaluated";
  } else if (!decision.has_margin) {
    audit.mismatch_reason = "no-margin";
  } else if (std::abs(decision.margin) < kDefaultKnifeEdgeMargin) {
    audit.mismatch_reason = "sub-margin-miss";
  } else {
    audit.mismatch_reason = "clear-miss";
  }
  return audit;
}

std::vector<ProfileEntry> profile_from_spans(std::vector<ProfileSpan> spans) {
  // Deterministic total order: track, then start ascending, then end
  // descending (parents before children), then name.
  std::sort(spans.begin(), spans.end(),
            [](const ProfileSpan& a, const ProfileSpan& b) {
              if (a.track != b.track) return a.track < b.track;
              if (a.start != b.start) return a.start < b.start;
              if (a.end != b.end) return a.end > b.end;
              return a.name < b.name;
            });

  struct Node {
    double child_sim_ms = 0.0;
    double child_wall_ms = 0.0;
    bool child_wall_ok = true;  ///< all direct children carried wall times
  };
  std::vector<Node> nodes(spans.size());

  // Per-track containment stack: the top is the innermost span still
  // enclosing the current one. Assumes well-nested spans per track
  // (sequential stages or strictly contained sub-spans); partially
  // overlapping spans are treated as siblings.
  std::vector<std::size_t> stack;
  std::int64_t track = 0;
  bool track_open = false;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const ProfileSpan& s = spans[i];
    if (!track_open || s.track != track) {
      stack.clear();
      track = s.track;
      track_open = true;
    }
    while (!stack.empty()) {
      const ProfileSpan& top = spans[stack.back()];
      if (s.start >= top.start && s.end <= top.end) break;
      stack.pop_back();
    }
    if (!stack.empty()) {
      Node& parent = nodes[stack.back()];
      parent.child_sim_ms +=
          to_milliseconds(s.end) - to_milliseconds(s.start);
      if (s.wall_ms >= 0.0) {
        parent.child_wall_ms += s.wall_ms;
      } else {
        parent.child_wall_ok = false;
      }
    }
    stack.push_back(i);
  }

  struct Acc {
    std::uint64_t count = 0;
    double sim_ms = 0.0;
    double self_sim_ms = 0.0;
    double wall_ms = 0.0;
    double self_wall_ms = 0.0;
    bool wall_ok = true;       ///< every span of this name had wall time
    bool self_wall_ok = true;  ///< ... and so did all their children
  };
  std::map<std::string, Acc> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const ProfileSpan& s = spans[i];
    const Node& n = nodes[i];
    const double dur = to_milliseconds(s.end) - to_milliseconds(s.start);
    Acc& a = by_name[s.name];
    ++a.count;
    a.sim_ms += dur;
    a.self_sim_ms += std::max(0.0, dur - n.child_sim_ms);
    if (s.wall_ms >= 0.0) {
      a.wall_ms += s.wall_ms;
      if (n.child_wall_ok) {
        a.self_wall_ms += std::max(0.0, s.wall_ms - n.child_wall_ms);
      } else {
        a.self_wall_ok = false;
      }
    } else {
      a.wall_ok = false;
      a.self_wall_ok = false;
    }
  }

  std::vector<ProfileEntry> out;
  out.reserve(by_name.size());
  for (const auto& [name, a] : by_name) {
    ProfileEntry e;
    e.name = name;
    e.count = a.count;
    e.sim_ms = a.sim_ms;
    e.self_sim_ms = a.self_sim_ms;
    e.wall_ms = a.wall_ok ? a.wall_ms : -1.0;
    e.self_wall_ms = (a.wall_ok && a.self_wall_ok) ? a.self_wall_ms : -1.0;
    out.push_back(std::move(e));
  }
  return out;
}

std::vector<ProfileSpan> profile_spans_from_timeline(const Timeline& tl) {
  std::vector<ProfileSpan> spans;
  tl.for_each_event([&](const TimelineEvent& ev) {
    if (ev.kind != TimelineEvent::Kind::Span) return;
    ProfileSpan s;
    s.track = (static_cast<std::int64_t>(ev.pid) << 32) |
              static_cast<std::int64_t>(static_cast<std::uint32_t>(ev.tid));
    s.name = ev.name;
    s.start = ev.at;
    s.end = ev.at + ev.duration;
    spans.push_back(std::move(s));
  });
  return spans;
}

std::string RunReport::to_json(const MetricsRegistry* metrics) const {
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema\": \"" << kRunReportSchema << "\",\n";
  out << "  \"run\": \"" << json_escape(run) << "\",\n";
  if (!cell.empty()) {
    out << "  \"cell\": \"" << json_escape(cell) << "\",\n";
  }
  out << "  \"seed\": " << seed << ",\n";
  out << "  \"fault_plan\": \"" << json_escape(fault_plan) << "\",\n";
  out << "  \"verdict\": \"" << json_escape(verdict) << "\",\n";
  out << "  \"reason\": \"" << json_escape(reason) << "\",\n";
  // v4: verdict provenance — every statistic/threshold comparison behind
  // the verdict, plus the run-level margin the sweep knife-edge gate
  // aggregates. Always present; a run that never reached analysis emits
  // the empty-but-valid block (evaluated=false, empty arrays).
  out << "  \"decision\": {\n";
  out << "    \"evaluated\": " << (decision.evaluated ? "true" : "false");
  if (decision.has_margin) {
    out << ",\n    \"margin\": " << json_number(decision.margin);
  }
  out << ",\n    \"detectors\": [";
  for (std::size_t i = 0; i < decision.detectors.size(); ++i) {
    const DecisionRow& d = decision.detectors[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "      {\"name\": \"" << json_escape(d.name) << "\""
        << ", \"statistic\": " << json_number(d.statistic)
        << ", \"threshold\": " << json_number(d.threshold)
        << ", \"margin\": " << json_number(d.margin)
        << ", \"outcome\": " << (d.outcome ? "true" : "false")
        << ", \"valid\": " << (d.valid ? "true" : "false");
    if (d.has_rho) {
      out << ", \"rho\": " << json_number(d.rho)
          << ", \"sigma_ms\": " << json_number(d.sigma_ms);
    }
    out << "}";
  }
  out << (decision.detectors.empty() ? "" : "\n    ") << "]";
  if (decision.has_aggregation) {
    out << ",\n    \"aggregation\": {\"sizes_tested\": "
        << decision.sizes_tested
        << ", \"sizes_correlated\": " << decision.sizes_correlated
        << ", \"sizes_valid\": " << decision.sizes_valid
        << ", \"threshold\": " << json_number(decision.aggregation_threshold)
        << ", \"margin\": " << json_number(decision.aggregation_margin)
        << ", \"outcome\": "
        << (decision.aggregation_outcome ? "true" : "false") << "}";
  }
  out << ",\n    \"degradations\": [";
  for (std::size_t i = 0; i < decision.degradations.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\""
        << json_escape(decision.degradations[i]) << "\"";
  }
  out << "]\n  },\n";
  // v5: the ground-truth ledger and the verdict audit. Both optional —
  // emitted only by runners that know what the simulator configured — so
  // reports without them keep their pre-v5 bytes after the schema tag.
  if (ground_truth.present) {
    out << "  \"ground_truth\": {\"differentiated\": "
        << (ground_truth.differentiated ? "true" : "false")
        << ", \"mechanism\": \"" << json_escape(ground_truth.mechanism)
        << "\", \"placement\": \"" << json_escape(ground_truth.placement)
        << "\", \"within_target_area\": "
        << (ground_truth.within_target_area ? "true" : "false")
        << ", \"rate_bps\": " << json_number(ground_truth.rate_bps)
        << ", \"activation_bytes\": " << ground_truth.activation_bytes
        << ", \"sanity_check\": "
        << (ground_truth.sanity_check ? "true" : "false") << "},\n";
  }
  if (audit.present) {
    out << "  \"audit\": {\"expected_positive\": "
        << (audit.expected_positive ? "true" : "false")
        << ", \"observed_positive\": "
        << (audit.observed_positive ? "true" : "false")
        << ", \"classification\": \"" << json_escape(audit.classification)
        << "\", \"mismatch_reason\": \"" << json_escape(audit.mismatch_reason)
        << "\"},\n";
  }
  out << "  \"stages\": [";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const auto& s = stages[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"name\": \"" << json_escape(s.name) << "\""
        << ", \"sim_start_us\": "
        << json_number(static_cast<double>(s.sim_start) / 1000.0)
        << ", \"sim_end_us\": "
        << json_number(static_cast<double>(s.sim_end) / 1000.0)
        << ", \"sim_ms\": " << json_number(to_milliseconds(s.sim_end) -
                                           to_milliseconds(s.sim_start));
    if (s.wall_ms >= 0.0) {
      out << ", \"wall_ms\": " << json_number(s.wall_ms);
    }
    out << "}";
  }
  out << (stages.empty() ? "" : "\n  ") << "],\n";
  // v3: per-stage self time (span duration minus directly enclosed child
  // spans), see profile_from_spans.
  out << "  \"profile\": {";
  bool first = true;
  for (const auto& p : profile) {
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(p.name)
        << "\": {\"count\": " << p.count
        << ", \"sim_ms\": " << json_number(p.sim_ms)
        << ", \"self_sim_ms\": " << json_number(p.self_sim_ms);
    if (p.wall_ms >= 0.0) {
      out << ", \"wall_ms\": " << json_number(p.wall_ms);
    }
    if (p.self_wall_ms >= 0.0) {
      out << ", \"self_wall_ms\": " << json_number(p.self_wall_ms);
    }
    out << "}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n";
  out << "  \"values\": {";
  first = true;
  for (const auto& [name, v] : values) {
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
        << "\": " << json_number(v);
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n";
  out << "  \"injection\": {";
  int total = 0;
  first = true;
  for (const auto& [kind, n] : injection) {
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(kind)
        << "\": " << n;
    total += n;
    first = false;
  }
  if (!first) out << ",\n    \"total\": " << total << "\n  ";
  out << "},\n";
  // v2: quantiles pre-derived from the histogram bins, so downstream
  // readers (wehey_cli inspect, dashboards) get p50/p90/p99 without
  // re-walking the bins themselves.
  out << "  \"percentiles\": {";
  first = true;
  if (metrics != nullptr) {
    for (const auto& [name, h] : metrics->histograms()) {
      if (h.count() == 0) continue;
      out << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
          << "\": {\"p50\": " << json_number(histogram_quantile(h, 0.50))
          << ", \"p90\": " << json_number(histogram_quantile(h, 0.90))
          << ", \"p99\": " << json_number(histogram_quantile(h, 0.99))
          << "}";
      first = false;
    }
  }
  out << (first ? "" : "\n  ") << "},\n";
  out << "  \"metrics\": ";
  if (metrics != nullptr) {
    out << metrics->to_json(2);
  } else {
    out << "{\"counters\": {}, \"gauges\": {}, \"histograms\": {}}";
  }
  out << "\n}\n";
  return out.str();
}

ReportMode report_mode_from_env() {
  const char* v = std::getenv("WEHEY_REPORT_MODE");
  if (v == nullptr) return ReportMode::kPerRun;
  const std::string mode(v);
  if (mode == "sweep") return ReportMode::kSweep;
  if (mode == "both") return ReportMode::kBoth;
  return ReportMode::kPerRun;
}

std::string report_path_from_env(const std::string& run_name) {
  if (const char* path = std::getenv("WEHEY_REPORT")) {
    if (path[0] != 0 && std::string(path) != "0") return path;
  }
  if (const char* dir = std::getenv("WEHEY_REPORT_DIR")) {
    if (dir[0] != 0) return std::string(dir) + "/" + run_name + ".report.json";
  }
  return {};
}

std::string sweep_path_from_env(const std::string& run_name) {
  if (const char* path = std::getenv("WEHEY_REPORT")) {
    if (path[0] != 0 && std::string(path) != "0") {
      // In pure sweep mode WEHEY_REPORT names the sweep file itself; in
      // "both" mode it names the per-run file, and the aggregate lands
      // next to it.
      if (report_mode_from_env() == ReportMode::kSweep) return path;
      return std::string(path) + ".sweep.json";
    }
  }
  if (const char* dir = std::getenv("WEHEY_REPORT_DIR")) {
    if (dir[0] != 0) return std::string(dir) + "/" + run_name + ".sweep.json";
  }
  return {};
}

bool report_wall_times() {
  const char* v = std::getenv("WEHEY_REPORT_WALL");
  return v != nullptr && v[0] != 0 && std::string(v) != "0";
}

bool write_report_file(const std::string& path, const std::string& json) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::size_t wrote = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return wrote == json.size();
}

bool write_artifact(const std::string& what, const std::string& path,
                    const std::string& json, const std::string& note) {
  if (!write_report_file(path, json)) {
    std::fprintf(stderr, "%s: FAILED to write %s\n", what.c_str(),
                 path.c_str());
    return false;
  }
  std::fprintf(stderr, "%s: %s%s\n", what.c_str(), path.c_str(),
               note.c_str());
  return true;
}

}  // namespace wehey::obs
