// Offline analyzer behind `wehey_cli inspect <report|sweep|journal>`.
//
// Reads the report artifacts the obs layer emits — wehey.run_report.v6
// RunReports, wehey.sweep_report.v2 aggregates and
// wehey.sweep_checkpoint.v1 journals — and renders human-readable
// summaries: per-stage sim times, p50/p90/p99 percentiles per histogram
// (from the report's "percentiles" section), per-flow RTT/loss tables,
// queue-residency and drop-by-reason breakdowns, and link utilization.
// Any other document is refused: older schema versions, and Chrome
// traces, which open in any Chrome-trace viewer. Optional sections
// (cell, ground truth, audit, fault-free injection) may be absent: the
// renderer skips what is missing instead of failing.
//
// The JSON model is deliberately tiny (no external dependency): objects
// preserve key order, numbers are doubles — exactly what the writers in
// this directory produce.
#pragma once

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace wehey::obs {

struct JsonValue {
  enum class Type { Null, Bool, Number, String, Array, Object };

  Type type = Type::Null;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;
  double num_or(double fallback) const {
    return type == Type::Number ? number : fallback;
  }
};

/// Strict-enough recursive-descent parse of `text` (the subset the obs
/// writers emit: null/bool/number/string/array/object, \uXXXX escapes
/// passed through verbatim). Returns false and fills `error` on bad input.
bool json_parse(const std::string& text, JsonValue& out,
                std::string* error = nullptr);

bool is_run_report(const JsonValue& doc);

void render_report(const JsonValue& doc, std::FILE* out);
void render_sweep(const JsonValue& doc, std::FILE* out);

/// Slurp a file; false on I/O error.
bool read_file(const std::string& path, std::string& out);

/// Convenience: read `path`, detect run report vs sweep vs journal,
/// render to `out`. Returns false (with a message on stderr, nothing on
/// `out`) on parse or format errors.
bool inspect_file(const std::string& path, std::FILE* out);

}  // namespace wehey::obs
