#include "obs/aggregate.hpp"

#include <algorithm>
#include <cmath>
#include <regex>
#include <sstream>

#include "common/time.hpp"
#include "obs/timeline.hpp"

namespace wehey::obs {

namespace {

constexpr char kNoneLabel[] = "(none)";

const std::string& label_or_none(const std::string& s) {
  static const std::string none = kNoneLabel;
  return s.empty() ? none : s;
}

/// Linear-interpolated quantile of an ascending-sorted sample vector.
double samples_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t i = static_cast<std::size_t>(pos);
  if (i + 1 >= sorted.size()) return sorted.back();
  const double frac = pos - static_cast<double>(i);
  return sorted[i] + (sorted[i + 1] - sorted[i]) * frac;
}

/// Sum in ascending order — with pre-sorted input this is a pure
/// function of the sample *set*, immune to absorb order.
double sorted_sum(const std::vector<double>& sorted) {
  double total = 0.0;
  for (double v : sorted) total += v;
  return total;
}

}  // namespace

void SweepAggregator::tally_run(const std::string& cell,
                                const std::string& fault_plan,
                                const std::string& verdict,
                                const std::string& reason) {
  ++runs_;
  ++fault_plans_[label_or_none(fault_plan)];
  ++verdicts_[label_or_none(verdict)];
  if (!reason.empty()) ++reasons_[reason];
  if (!cell.empty()) {
    CellAgg& c = cells_[cell];
    ++c.runs;
    ++c.verdicts[label_or_none(verdict)];
    if (verdict == kBudgetExhaustedVerdict) {
      ++c.poisoned;
      ++c.poison_reasons[label_or_none(reason)];
    }
  }
}

void SweepAggregator::absorb_audit(const std::string& cell,
                                   const std::string& classification,
                                   const std::string& mismatch_reason) {
  const auto apply = [&](AuditTally& t) {
    if (classification == "tp") {
      ++t.tp;
    } else if (classification == "fp") {
      ++t.fp;
    } else if (classification == "fn") {
      ++t.fn;
    } else if (classification == "tn") {
      ++t.tn;
    } else {
      ++t.skipped;
    }
    if (!mismatch_reason.empty()) ++t.mismatch_reasons[mismatch_reason];
  };
  apply(audit_);
  if (!cell.empty()) apply(cells_[cell].audit);
}

void SweepAggregator::absorb_value(const std::string& cell,
                                   const std::string& name, double v) {
  values_[name].values.push_back(v);
  if (!cell.empty()) cells_[cell].values[name].values.push_back(v);
}

void SweepAggregator::absorb_stage(const std::string& name, double sim_ms) {
  stages_[name].values.push_back(sim_ms);
}

void SweepAggregator::absorb_profile(const std::string& name,
                                     std::uint64_t count, double sim_ms,
                                     double self_sim_ms) {
  ProfileAgg& p = profile_[name];
  p.spans += count;
  p.sim_ms.values.push_back(sim_ms);
  p.self_sim_ms.values.push_back(self_sim_ms);
}

void SweepAggregator::absorb_histogram(const std::string& name, double lo,
                                       double hi, std::uint64_t count,
                                       double sum, double min, double max,
                                       const std::vector<std::uint64_t>& bins) {
  auto [it, inserted] = histograms_.try_emplace(name);
  HistAgg& mine = it->second;
  if (inserted) {
    mine.lo = lo;
    mine.hi = hi;
    mine.bins.assign(bins.size(), 0);
  }
  if (count == 0) return;
  if (mine.count == 0 || min < mine.min) mine.min = min;
  if (mine.count == 0 || max > mine.max) mine.max = max;
  mine.count += count;
  mine.run_sums.values.push_back(sum);
  const std::size_t n = std::min(mine.bins.size(), bins.size());
  for (std::size_t i = 0; i < n; ++i) mine.bins[i] += bins[i];
}

void SweepAggregator::add_run(const RunReport& report,
                              const MetricsRegistry* metrics) {
  tally_run(report.cell, report.fault_plan, report.verdict, report.reason);
  for (const auto& [kind, n] : report.injection) injection_[kind] += n;
  for (const auto& [name, v] : report.values) {
    absorb_value(report.cell, name, v);
  }
  // The verdict margin joins the cell's value blocks; the knife_edge
  // block is derived from these samples at render time.
  if (report.decision.has_margin) {
    absorb_value(report.cell, kDecisionMarginValue, report.decision.margin);
  }
  if (report.audit.present) {
    absorb_audit(report.cell, report.audit.classification,
                 report.audit.mismatch_reason);
  }
  for (const auto& s : report.stages) {
    // The identical expression RunReport::to_json serializes, so the
    // in-process and offline absorb paths see bit-equal doubles.
    absorb_stage(s.name,
                 to_milliseconds(s.sim_end) - to_milliseconds(s.sim_start));
  }
  for (const auto& p : report.profile) {
    absorb_profile(p.name, p.count, p.sim_ms, p.self_sim_ms);
  }
  if (metrics == nullptr) return;
  for (const auto& [name, c] : metrics->counters()) {
    counters_[name] += c.value();
  }
  for (const auto& [name, g] : metrics->gauges()) {
    if (!g.seen()) continue;
    GaugeAgg& mine = gauges_[name];
    if (!mine.seen || g.min() < mine.min) mine.min = g.min();
    if (!mine.seen || g.max() > mine.max) mine.max = g.max();
    mine.seen = true;
  }
  for (const auto& [name, h] : metrics->histograms()) {
    absorb_histogram(name, h.lo(), h.hi(), h.count(), h.sum(),
                     h.count() ? h.min() : 0.0, h.count() ? h.max() : 0.0,
                     h.bins());
  }
}

bool SweepAggregator::add_run_json(const JsonValue& doc, std::string* error) {
  const auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  if (doc.type != JsonValue::Type::Object) {
    return fail("not a JSON object");
  }
  const JsonValue* schema = doc.find("schema");
  if (schema == nullptr || schema->type != JsonValue::Type::String ||
      schema->str.rfind(kRunReportSchemaPrefix, 0) != 0) {
    return fail("not a wehey.run_report.* document");
  }
  const auto str_or = [&](const char* key) -> std::string {
    const JsonValue* v = doc.find(key);
    return (v != nullptr && v->type == JsonValue::Type::String) ? v->str
                                                                : std::string();
  };
  const std::string cell = str_or("cell");
  tally_run(cell, str_or("fault_plan"), str_or("verdict"), str_or("reason"));

  if (const JsonValue* inj = doc.find("injection");
      inj != nullptr && inj->type == JsonValue::Type::Object) {
    for (const auto& [kind, v] : inj->object) {
      if (kind == "total") continue;  // derived on output, never absorbed
      injection_[kind] += static_cast<std::int64_t>(v.num_or(0.0));
    }
  }
  if (const JsonValue* values = doc.find("values");
      values != nullptr && values->type == JsonValue::Type::Object) {
    for (const auto& [name, v] : values->object) {
      if (v.type == JsonValue::Type::Number) absorb_value(cell, name, v.number);
    }
  }
  // json_number round-trips doubles exactly, so this absorbs a value
  // bit-equal to what add_run sees from the live report.
  if (const JsonValue* decision = doc.find("decision");
      decision != nullptr && decision->type == JsonValue::Type::Object) {
    if (const JsonValue* margin = decision->find("margin");
        margin != nullptr && margin->type == JsonValue::Type::Number) {
      absorb_value(cell, kDecisionMarginValue, margin->number);
    }
  }
  // Pre-v5 reports have no "audit" object; absorbing nothing keeps the
  // aggregate identical to what add_run sees for an audit-free RunReport.
  if (const JsonValue* audit = doc.find("audit");
      audit != nullptr && audit->type == JsonValue::Type::Object) {
    const auto field = [&](const char* key) -> std::string {
      const JsonValue* v = audit->find(key);
      return (v != nullptr && v->type == JsonValue::Type::String)
                 ? v->str
                 : std::string();
    };
    absorb_audit(cell, field("classification"), field("mismatch_reason"));
  }
  if (const JsonValue* stages = doc.find("stages");
      stages != nullptr && stages->type == JsonValue::Type::Array) {
    for (const auto& s : stages->array) {
      const JsonValue* name = s.find("name");
      const JsonValue* sim_ms = s.find("sim_ms");
      if (name == nullptr || name->type != JsonValue::Type::String ||
          sim_ms == nullptr || sim_ms->type != JsonValue::Type::Number) {
        return fail("malformed stages entry");
      }
      absorb_stage(name->str, sim_ms->number);
    }
  }
  if (const JsonValue* profile = doc.find("profile");
      profile != nullptr && profile->type == JsonValue::Type::Object) {
    for (const auto& [name, p] : profile->object) {
      const JsonValue* count = p.find("count");
      const JsonValue* sim_ms = p.find("sim_ms");
      const JsonValue* self_ms = p.find("self_sim_ms");
      if (count == nullptr || sim_ms == nullptr || self_ms == nullptr) {
        return fail("malformed profile entry '" + name + "'");
      }
      absorb_profile(name, static_cast<std::uint64_t>(count->num_or(0.0)),
                     sim_ms->num_or(0.0), self_ms->num_or(0.0));
    }
  }
  const JsonValue* metrics = doc.find("metrics");
  if (metrics == nullptr || metrics->type != JsonValue::Type::Object) {
    return true;  // v1 reports may omit the whole block
  }
  if (const JsonValue* counters = metrics->find("counters");
      counters != nullptr && counters->type == JsonValue::Type::Object) {
    for (const auto& [name, v] : counters->object) {
      counters_[name] += static_cast<std::uint64_t>(v.num_or(0.0));
    }
  }
  if (const JsonValue* gauges = metrics->find("gauges");
      gauges != nullptr && gauges->type == JsonValue::Type::Object) {
    for (const auto& [name, g] : gauges->object) {
      const JsonValue* min = g.find("min");
      const JsonValue* max = g.find("max");
      if (min == nullptr || max == nullptr) continue;
      GaugeAgg& mine = gauges_[name];
      if (!mine.seen || min->number < mine.min) mine.min = min->number;
      if (!mine.seen || max->number > mine.max) mine.max = max->number;
      mine.seen = true;
    }
  }
  if (const JsonValue* hists = metrics->find("histograms");
      hists != nullptr && hists->type == JsonValue::Type::Object) {
    for (const auto& [name, h] : hists->object) {
      const JsonValue* bins = h.find("bins");
      if (bins == nullptr || bins->type != JsonValue::Type::Array) {
        return fail("histogram '" + name + "' has no bins array");
      }
      std::vector<std::uint64_t> b;
      b.reserve(bins->array.size());
      for (const auto& v : bins->array) {
        b.push_back(static_cast<std::uint64_t>(v.num_or(0.0)));
      }
      const auto field = [&](const char* key) {
        const JsonValue* v = h.find(key);
        return v != nullptr ? v->num_or(0.0) : 0.0;
      };
      absorb_histogram(name, field("lo"), field("hi"),
                       static_cast<std::uint64_t>(field("count")),
                       field("sum"), field("min"), field("max"), b);
    }
  }
  return true;
}

namespace {

/// {"count": N, "min":, "max":, "mean":, "sum":, "p50":, "p90":, "p99":}
/// over the numerically sorted samples.
void emit_summary(std::ostringstream& out, std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const double sum = sorted_sum(samples);
  const std::size_t n = samples.size();
  out << "{\"count\": " << n;
  if (n > 0) {
    out << ", \"min\": " << json_number(samples.front())
        << ", \"max\": " << json_number(samples.back())
        << ", \"mean\": " << json_number(sum / static_cast<double>(n))
        << ", \"sum\": " << json_number(sum)
        << ", \"p50\": " << json_number(samples_quantile(samples, 0.50))
        << ", \"p90\": " << json_number(samples_quantile(samples, 0.90))
        << ", \"p99\": " << json_number(samples_quantile(samples, 0.99));
  }
  out << "}";
}

void emit_tally(std::ostringstream& out, const std::string& indent,
                const std::map<std::string, std::uint64_t>& tally) {
  out << "{";
  bool first = true;
  for (const auto& [name, n] : tally) {
    out << (first ? "\n" : ",\n") << indent << "  \"" << json_escape(name)
        << "\": " << n;
    first = false;
  }
  out << (first ? "" : "\n" + indent) << "}";
}

}  // namespace

std::string SweepAggregator::to_json() const {
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema\": \"" << kSweepReportSchema << "\",\n";
  out << "  \"sweep\": \"" << json_escape(sweep_) << "\",\n";
  out << "  \"runs\": " << runs_ << ",\n";
  out << "  \"fault_plans\": ";
  emit_tally(out, "  ", fault_plans_);
  out << ",\n  \"verdicts\": ";
  emit_tally(out, "  ", verdicts_);
  out << ",\n  \"reasons\": ";
  emit_tally(out, "  ", reasons_);
  out << ",\n  \"injection\": {";
  bool first = true;
  std::int64_t total = 0;
  for (const auto& [kind, n] : injection_) {
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(kind)
        << "\": " << n;
    total += n;
    first = false;
  }
  if (!first) out << ",\n    \"total\": " << total << "\n  ";
  out << "},\n";

  out << "  \"values\": {";
  first = true;
  for (const auto& [name, s] : values_) {
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(name) << "\": ";
    emit_summary(out, s.values);
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n";

  out << "  \"stages\": {";
  first = true;
  for (const auto& [name, s] : stages_) {
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(name) << "\": ";
    emit_summary(out, s.values);
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n";

  out << "  \"profile\": {";
  first = true;
  for (const auto& [name, p] : profile_) {
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
        << "\": {\"spans\": " << p.spans << ", \"sim_ms\": ";
    emit_summary(out, p.sim_ms.values);
    out << ", \"self_sim_ms\": ";
    emit_summary(out, p.self_sim_ms.values);
    out << "}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n";

  out << "  \"cells\": {";
  first = true;
  for (const auto& [cell, c] : cells_) {
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(cell)
        << "\": {\n      \"runs\": " << c.runs << ",\n      \"verdicts\": ";
    emit_tally(out, "      ", c.verdicts);
    out << ",\n      \"values\": {";
    bool vfirst = true;
    for (const auto& [name, s] : c.values) {
      out << (vfirst ? "\n" : ",\n") << "        \"" << json_escape(name)
          << "\": ";
      emit_summary(out, s.values);
      vfirst = false;
    }
    out << (vfirst ? "" : "\n      ") << "}\n    }";
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n";

  // Quarantine: a pure function of the absorbed run set (like every other
  // block), so resumed and uninterrupted sweeps agree byte-for-byte.
  // Only quarantined cells are listed; presence in "cells" = quarantined.
  out << "  \"quarantine\": {\n    \"threshold\": "
      << kQuarantineThreshold << ",\n    \"cells\": {";
  first = true;
  for (const auto& [cell, c] : cells_) {
    if (c.poisoned < static_cast<std::uint64_t>(kQuarantineThreshold)) {
      continue;
    }
    out << (first ? "\n" : ",\n") << "      \"" << json_escape(cell)
        << "\": {\"poisoned_runs\": " << c.poisoned << ", \"reasons\": ";
    emit_tally(out, "      ", c.poison_reasons);
    out << "}";
    first = false;
  }
  out << (first ? "" : "\n    ") << "}\n  },\n";

  // Knife-edge cells: minimum |decision margin| below
  // kDefaultKnifeEdgeMargin, i.e. at least one run's verdict sat close
  // enough to a decision boundary that an equivalent-but-not-identical
  // realization (a different seed) could flip it. `wehey_cli inspect`
  // renders this block as the KNIFE-EDGE table.
  out << "  \"knife_edge\": {\n    \"margin_threshold\": "
      << json_number(kDefaultKnifeEdgeMargin) << ",\n    \"cells\": {";
  first = true;
  for (const auto& [cell, c] : cells_) {
    const auto it = c.values.find(kDecisionMarginValue);
    if (it == c.values.end() || it->second.values.empty()) continue;
    double min_abs = 0.0;
    std::uint64_t below = 0;
    bool seen = false;
    for (double v : it->second.values) {
      const double a = std::abs(v);
      if (!seen || a < min_abs) min_abs = a;
      seen = true;
      if (a < kDefaultKnifeEdgeMargin) ++below;
    }
    if (min_abs >= kDefaultKnifeEdgeMargin) continue;
    out << (first ? "\n" : ",\n") << "      \"" << json_escape(cell)
        << "\": {\"min_margin\": " << json_number(min_abs)
        << ", \"runs_below\": " << below << "}";
    first = false;
  }
  out << (first ? "" : "\n    ") << "}\n  },\n";

  // Verdict audit: per-cell and grid-level confusion matrices folded
  // from the per-run "audit" sections (RunReport v5). The block is
  // absent when no absorbed run carried an audit, so pre-v5 inputs
  // serialize byte-identically to before. Ratios are derived from the
  // integer tallies at render time; knife-edge cells (same min-|margin|
  // criterion as the knife_edge block above) are flagged, not dropped,
  // so CI gates can exempt them explicitly.
  if (audit_.any()) {
    const auto emit_audit = [&](const AuditTally& t, const std::string& ind) {
      const auto ratio = [](std::uint64_t num, std::uint64_t den) {
        return den == 0 ? 0.0
                        : static_cast<double>(num) / static_cast<double>(den);
      };
      const std::uint64_t decided = t.tp + t.fp + t.fn + t.tn;
      out << "\"tp\": " << t.tp << ", \"fp\": " << t.fp << ", \"fn\": "
          << t.fn << ", \"tn\": " << t.tn << ", \"skipped\": " << t.skipped
          << ",\n" << ind << " \"accuracy\": "
          << json_number(ratio(t.tp + t.tn, decided))
          << ", \"precision\": " << json_number(ratio(t.tp, t.tp + t.fp))
          << ", \"recall\": " << json_number(ratio(t.tp, t.tp + t.fn))
          << ",\n" << ind << " \"mismatch_reasons\": ";
      emit_tally(out, ind + " ", t.mismatch_reasons);
    };
    out << "  \"audit\": {\n    \"grid\": {";
    emit_audit(audit_, "   ");
    out << "},\n    \"cells\": {";
    first = true;
    for (const auto& [cell, c] : cells_) {
      if (!c.audit.any()) continue;
      bool knife = false;
      if (const auto it = c.values.find(kDecisionMarginValue);
          it != c.values.end()) {
        for (double v : it->second.values) {
          if (std::abs(v) < kDefaultKnifeEdgeMargin) {
            knife = true;
            break;
          }
        }
      }
      out << (first ? "\n" : ",\n") << "      \"" << json_escape(cell)
          << "\": {";
      emit_audit(c.audit, "     ");
      out << ",\n       \"knife_edge\": " << (knife ? "true" : "false")
          << "}";
      first = false;
    }
    out << (first ? "" : "\n    ") << "}\n  },\n";
  }

  // Cross-cell distribution of per-cell means: how a value varies across
  // the grid rather than across individual runs.
  out << "  \"cell_percentiles\": {";
  first = true;
  {
    std::map<std::string, std::vector<double>> by_value;
    for (const auto& [cell, c] : cells_) {
      for (const auto& [name, s] : c.values) {
        if (s.values.empty()) continue;
        std::vector<double> sorted = s.values;
        std::sort(sorted.begin(), sorted.end());
        by_value[name].push_back(sorted_sum(sorted) /
                                 static_cast<double>(sorted.size()));
      }
    }
    for (auto& [name, means] : by_value) {
      std::sort(means.begin(), means.end());
      out << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
          << "\": {\"cells\": " << means.size()
          << ", \"p50\": " << json_number(samples_quantile(means, 0.50))
          << ", \"p90\": " << json_number(samples_quantile(means, 0.90))
          << ", \"p99\": " << json_number(samples_quantile(means, 0.99))
          << "}";
      first = false;
    }
  }
  out << (first ? "" : "\n  ") << "},\n";

  out << "  \"percentiles\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (h.count == 0) continue;
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
        << "\": {\"p50\": "
        << json_number(histogram_quantile(h.lo, h.hi, h.count, h.min, h.max,
                                          h.bins, 0.50))
        << ", \"p90\": "
        << json_number(histogram_quantile(h.lo, h.hi, h.count, h.min, h.max,
                                          h.bins, 0.90))
        << ", \"p99\": "
        << json_number(histogram_quantile(h.lo, h.hi, h.count, h.min, h.max,
                                          h.bins, 0.99))
        << "}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n";

  out << "  \"metrics\": {\n";
  out << "    \"counters\": {";
  first = true;
  for (const auto& [name, v] : counters_) {
    out << (first ? "\n" : ",\n") << "      \"" << json_escape(name)
        << "\": " << v;
    first = false;
  }
  out << (first ? "" : "\n    ") << "},\n";
  // Gauge "last" is a function of absorb order, so the sweep keeps only
  // the order-free watermarks.
  out << "    \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!g.seen) continue;
    out << (first ? "\n" : ",\n") << "      \"" << json_escape(name)
        << "\": {\"min\": " << json_number(g.min)
        << ", \"max\": " << json_number(g.max) << "}";
    first = false;
  }
  out << (first ? "" : "\n    ") << "},\n";
  out << "    \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    std::vector<double> sums = h.run_sums.values;
    std::sort(sums.begin(), sums.end());
    out << (first ? "\n" : ",\n") << "      \"" << json_escape(name)
        << "\": {\"lo\": " << json_number(h.lo)
        << ", \"hi\": " << json_number(h.hi) << ", \"count\": " << h.count
        << ", \"sum\": " << json_number(sorted_sum(sums))
        << ", \"min\": " << json_number(h.count ? h.min : 0.0)
        << ", \"max\": " << json_number(h.count ? h.max : 0.0)
        << ", \"bins\": [";
    for (std::size_t i = 0; i < h.bins.size(); ++i) {
      if (i > 0) out << ", ";
      out << h.bins[i];
    }
    out << "]}";
    first = false;
  }
  out << (first ? "" : "\n    ") << "}\n";
  out << "  }\n";
  out << "}\n";
  return out.str();
}

bool is_sweep_report(const JsonValue& doc) {
  if (doc.type != JsonValue::Type::Object) return false;
  const JsonValue* schema = doc.find("schema");
  return schema != nullptr && schema->type == JsonValue::Type::String &&
         schema->str == kSweepReportSchema;
}

// ---------------------------------------------------------------------------
// Baseline comparison.

namespace {

struct FlatValue {
  JsonValue::Type type = JsonValue::Type::Null;
  double number = 0.0;
  std::string str;
  bool boolean = false;
};

void flatten(const JsonValue& v, const std::string& path,
             std::map<std::string, FlatValue>& out) {
  switch (v.type) {
    case JsonValue::Type::Object:
      for (const auto& [key, child] : v.object) {
        flatten(child, path.empty() ? key : path + "." + key, out);
      }
      break;
    case JsonValue::Type::Array:
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        flatten(v.array[i], path + "[" + std::to_string(i) + "]", out);
      }
      break;
    default: {
      FlatValue f;
      f.type = v.type;
      f.number = v.number;
      f.str = v.str;
      f.boolean = v.boolean;
      out[path] = std::move(f);
      break;
    }
  }
}

bool any_match(const std::vector<std::string>& patterns,
               const std::string& key) {
  for (const auto& p : patterns) {
    if (std::regex_search(key, std::regex(p))) return true;
  }
  return false;
}

std::string type_name(JsonValue::Type t) {
  switch (t) {
    case JsonValue::Type::Null: return "null";
    case JsonValue::Type::Bool: return "bool";
    case JsonValue::Type::Number: return "number";
    case JsonValue::Type::String: return "string";
    case JsonValue::Type::Array: return "array";
    case JsonValue::Type::Object: return "object";
  }
  return "?";
}

}  // namespace

std::vector<std::string> flatten_keys(const JsonValue& doc) {
  std::map<std::string, FlatValue> flat;
  flatten(doc, "", flat);
  std::vector<std::string> keys;
  keys.reserve(flat.size());
  for (const auto& [key, value] : flat) keys.push_back(key);
  return keys;
}

CompareResult compare_reports(const JsonValue& baseline,
                              const JsonValue& candidate,
                              const CompareOptions& options) {
  CompareResult result;
  std::map<std::string, FlatValue> base, cand;
  flatten(baseline, "", base);
  flatten(candidate, "", cand);

  const auto tolerance_for = [&](const std::string& key) {
    for (const auto& [pattern, tol] : options.key_tolerances) {
      if (std::regex_search(key, std::regex(pattern))) return tol;
    }
    return options.tolerance;
  };

  for (const auto& [key, b] : base) {
    if (any_match(options.ignore, key)) continue;
    const auto it = cand.find(key);
    if (it == cand.end()) {
      result.failures.push_back("missing in candidate: " + key);
      continue;
    }
    const FlatValue& c = it->second;
    if (b.type != c.type) {
      result.failures.push_back("type changed at " + key + ": " +
                                type_name(b.type) + " -> " +
                                type_name(c.type));
      continue;
    }
    switch (b.type) {
      case JsonValue::Type::String:
        if (b.str != c.str) {
          result.failures.push_back("string changed at " + key + ": \"" +
                                    b.str + "\" -> \"" + c.str + "\"");
        }
        break;
      case JsonValue::Type::Bool:
        if (b.boolean != c.boolean) {
          result.failures.push_back("bool changed at " + key);
        }
        break;
      case JsonValue::Type::Number: {
        const double tol = tolerance_for(key);
        const double diff = std::abs(c.number - b.number);
        const double denom = std::abs(b.number);
        const bool bad = denom < 1e-12 ? diff > tol : diff / denom > tol;
        if (bad) {
          result.failures.push_back(
              "out of tolerance at " + key + ": " + json_number(b.number) +
              " -> " + json_number(c.number) + " (tol " + json_number(tol) +
              ")");
        }
        break;
      }
      default:
        break;  // nulls compare equal by type
    }
  }
  for (const auto& [key, c] : cand) {
    if (base.count(key) != 0 || any_match(options.ignore, key)) continue;
    result.notes.push_back("new key (not in baseline): " + key);
  }
  for (const auto& [pattern, floor] : options.min_keys) {
    const std::regex re(pattern);
    bool matched = false;
    for (const auto& [key, c] : cand) {
      if (c.type != JsonValue::Type::Number || !std::regex_search(key, re)) {
        continue;
      }
      matched = true;
      // Floors don't apply to oversubscribed rows: when the row ran more
      // threads than the host has, its speedup/efficiency measures the
      // machine, not the engine.
      const auto dot = key.rfind('.');
      if (dot != std::string::npos && dot > 0) {
        const auto flag = cand.find(key.substr(0, dot) + ".oversubscribed");
        if (flag != cand.end() && flag->second.type == JsonValue::Type::Bool &&
            flag->second.boolean) {
          result.notes.push_back("floor skipped at " + key +
                                 " (oversubscribed row)");
          continue;
        }
      }
      if (c.number < floor) {
        result.failures.push_back("below floor at " + key + ": " +
                                  json_number(c.number) + " < " +
                                  json_number(floor));
      }
    }
    if (!matched) {
      result.failures.push_back("min-key pattern matched nothing: " + pattern);
    }
  }
  // Existence gates: deliberately checked against *all* candidate keys,
  // including ignored ones — "this section exists" and "this section's
  // numbers drift" are independent assertions.
  for (const auto& pattern : options.require_keys) {
    const std::regex re(pattern);
    bool matched = false;
    for (const auto& [key, c] : cand) {
      if (std::regex_search(key, re)) {
        matched = true;
        break;
      }
    }
    if (!matched) {
      result.failures.push_back("require-key pattern matched nothing: " +
                                pattern);
    }
  }
  result.ok = result.failures.empty();
  return result;
}

}  // namespace wehey::obs
