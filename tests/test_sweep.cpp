// Sweep-scale observability: the SweepAggregator merge algebra (order-
// and thread-count-insensitive, offline == in-process), the run harness
// (ObservedSweep: checkpoint resume and the report files each
// WEHEY_REPORT_MODE writes), the baseline comparator behind `wehey_cli
// compare`, and the schema-version constants' agreement with the JSON
// Schema files under tools/.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "experiments/wild.hpp"
#include "obs/aggregate.hpp"
#include "obs/inspect.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/report.hpp"
#include "parallel/thread_pool.hpp"

namespace wehey::obs {
namespace {

// ------------------------------------------------------- merge algebra

/// A small synthetic per-run report + registry, deterministic in `i` and
/// deliberately awkward: non-associative double values, per-cell labels,
/// histograms with under/overflow.
std::pair<RunReport, MetricsRegistry> synthetic_run(std::size_t i) {
  RunReport r;
  char name[32];
  std::snprintf(name, sizeof(name), "sweep_test.c%zu.r%03zu", i % 3, i);
  r.run = name;
  std::snprintf(name, sizeof(name), "cell%zu", i % 3);
  r.cell = name;
  r.seed = 100 + i;
  r.verdict = i % 2 == 0 ? "localized" : "no evidence";
  if (i % 4 == 3) r.reason = "degraded measurements";
  if (i % 5 == 0) r.fault_plan = "kitchen-sink";
  r.values["score"] = 0.1 * static_cast<double>(i) + 1e-3 / (i + 1.0);
  r.values["tput_mbps"] = 40.0 / (1.0 + static_cast<double>(i % 7));
  r.injection["replays_aborted"] = static_cast<int>(i % 2);
  // cell0 sits on the knife edge (|margin| well below the 0.05 default);
  // cell1 and cell2 are comfortably decided. Alternating signs exercise
  // the |margin| convention in the knife_edge block.
  r.decision.evaluated = true;
  r.decision.has_margin = true;
  const double magnitude = i % 3 == 0
                               ? 0.01 + 0.005 * static_cast<double>(i)
                               : 0.4 + 0.01 * static_cast<double>(i);
  r.decision.margin = i % 2 == 0 ? magnitude : -magnitude;
  // v5 ground truth + audit: every run expects a positive; even runs
  // observe one (tp), odd runs miss (fn) with the reason graded by their
  // margin magnitude — so the audit fold sees multiple mismatch kinds.
  r.ground_truth.present = true;
  r.ground_truth.differentiated = true;
  r.ground_truth.mechanism = kMechanismCollectiveTbf;
  r.ground_truth.placement = kPlacementCommonLink;
  r.ground_truth.within_target_area = true;
  r.ground_truth.rate_bps = 1e6 + static_cast<double>(i);
  r.audit = classify_audit(r.ground_truth, i % 2 == 0,
                           /*mechanism_mismatch=*/false,
                           /*budget_exhausted=*/false, r.decision);
  r.add_stage("wehe_test", 0, (1 + Time(i)) * kSecond);
  r.add_stage("analysis", (1 + Time(i)) * kSecond,
              (2 + Time(i)) * kSecond);

  MetricsRegistry m;
  m.counter("sim.events").inc(1000 + i);
  m.gauge("queue.depth").set(static_cast<double>(i % 5));
  m.gauge("queue.depth").set(static_cast<double>(10 - (i % 4)));
  Histogram& h = m.histogram("lat_ms", 0.0, 10.0, 8);
  h.observe(-0.5);
  h.observe(0.07 * static_cast<double>(i % 17));
  h.observe(0.9 * static_cast<double>(i % 13));
  h.observe(42.0);
  return {std::move(r), std::move(m)};
}

TEST(Sweep, AggregateIsAbsorbOrderInsensitive) {
  const std::size_t n = 12;
  std::vector<std::pair<RunReport, MetricsRegistry>> runs;
  for (std::size_t i = 0; i < n; ++i) runs.push_back(synthetic_run(i));

  SweepAggregator forward("sweep_test");
  for (const auto& [r, m] : runs) forward.add_run(r, &m);
  SweepAggregator reverse("sweep_test");
  for (auto it = runs.rbegin(); it != runs.rend(); ++it) {
    reverse.add_run(it->first, &it->second);
  }
  // An interleaved order as a third witness.
  SweepAggregator shuffled("sweep_test");
  for (std::size_t i = 0; i < n; i += 2) {
    shuffled.add_run(runs[i].first, &runs[i].second);
  }
  for (std::size_t i = 1; i < n; i += 2) {
    shuffled.add_run(runs[i].first, &runs[i].second);
  }
  const std::string json = forward.to_json();
  EXPECT_EQ(json, reverse.to_json());
  EXPECT_EQ(json, shuffled.to_json());
  EXPECT_EQ(forward.runs(), n);
  EXPECT_NE(json.find("\"schema\": \"wehey.sweep_report.v2\""),
            std::string::npos);
  EXPECT_NE(json.find("\"cells\""), std::string::npos);
  EXPECT_NE(json.find("\"cell0\""), std::string::npos);
}

TEST(Sweep, OfflineJsonMergeMatchesInProcessMergeByteForByte) {
  const std::size_t n = 9;
  SweepAggregator in_process("sweep_test");
  SweepAggregator offline("sweep_test");
  for (std::size_t i = 0; i < n; ++i) {
    const auto [r, m] = synthetic_run(i);
    in_process.add_run(r, &m);
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(json_parse(r.to_json(&m), doc, &error)) << error;
    ASSERT_TRUE(offline.add_run_json(doc, &error)) << error;
  }
  EXPECT_EQ(in_process.to_json(), offline.to_json());
}

TEST(Sweep, UnsetGaugesAreNotSerialized) {
  // A gauge created but never set (sim.heap_depth_peak of a simulator
  // that dispatched nothing) has no reading: the run report leaves it out,
  // and both absorb paths agree on a sweep without it.
  RunReport r;
  r.run = "gauge_test.r000";
  MetricsRegistry m;
  m.gauge("set.gauge").set(3.5);
  m.gauge("unset.gauge");
  const std::string json = r.to_json(&m);
  EXPECT_NE(json.find("\"set.gauge\""), std::string::npos);
  EXPECT_EQ(json.find("\"unset.gauge\""), std::string::npos) << json;

  SweepAggregator in_process("gauge_test");
  in_process.add_run(r, &m);
  SweepAggregator offline("gauge_test");
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse(json, doc, &error)) << error;
  ASSERT_TRUE(offline.add_run_json(doc, &error)) << error;
  const std::string sweep = in_process.to_json();
  EXPECT_EQ(sweep, offline.to_json());
  EXPECT_NE(sweep.find("\"set.gauge\""), std::string::npos);
  EXPECT_EQ(sweep.find("\"unset.gauge\""), std::string::npos) << sweep;
}

TEST(Sweep, KnifeEdgeFlagsOnlyCellsNearTheDecisionBoundary) {
  SweepAggregator agg("knife");
  for (std::size_t i = 0; i < 12; ++i) {
    const auto [r, m] = synthetic_run(i);
    agg.add_run(r, &m);
  }
  const std::string json = agg.to_json();
  const std::size_t start = json.find("\"knife_edge\"");
  ASSERT_NE(start, std::string::npos);
  // The v5 audit block follows immediately, so slice up to it.
  const std::string block =
      json.substr(start, json.find("\"audit\"") - start);
  // cell0's minimum |margin| is 0.01 with three runs under the default
  // 0.05; the other cells never dip below 0.4 (negative margins count by
  // magnitude, so cell1's -0.41 does not flag).
  EXPECT_NE(block.find("\"margin_threshold\": 0.05"), std::string::npos);
  EXPECT_NE(block.find("\"cell0\": {\"min_margin\": 0.01, "
                       "\"runs_below\": 3}"),
            std::string::npos)
      << block;
  EXPECT_EQ(block.find("\"cell1\""), std::string::npos);
  EXPECT_EQ(block.find("\"cell2\""), std::string::npos);
}

TEST(Sweep, AuditFoldsRunClassificationsIntoConfusionMatrices) {
  SweepAggregator agg("audit");
  for (std::size_t i = 0; i < 12; ++i) {
    const auto [r, m] = synthetic_run(i);
    agg.add_run(r, &m);
  }
  const std::string json = agg.to_json();
  const std::size_t start = json.find("\"audit\"");
  ASSERT_NE(start, std::string::npos);
  const std::string block =
      json.substr(start, json.find("\"cell_percentiles\"") - start);
  // Grid: the six even runs land tp, the six odd runs miss (fn). The one
  // odd knife-edge run (i=3, |margin| 0.025 < 0.05) grades
  // sub-margin-miss; the other five misses are clear.
  EXPECT_NE(block.find("\"tp\": 6"), std::string::npos) << block;
  EXPECT_NE(block.find("\"fn\": 6"), std::string::npos);
  EXPECT_NE(block.find("\"accuracy\": 0.5"), std::string::npos);
  EXPECT_NE(block.find("\"precision\": 1"), std::string::npos);
  EXPECT_NE(block.find("\"recall\": 0.5"), std::string::npos);
  EXPECT_NE(block.find("\"sub-margin-miss\": 1"), std::string::npos);
  EXPECT_NE(block.find("\"clear-miss\": 5"), std::string::npos);
  // Per-cell matrices: each cell sees 2 tp + 2 fn, and only cell0 (the
  // sub-0.05 margins) carries the knife-edge flag.
  const auto count = [&](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t at = block.find(needle); at != std::string::npos;
         at = block.find(needle, at + needle.size())) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count("\"tp\": 2"), 3u) << block;
  EXPECT_EQ(count("\"fn\": 2"), 3u);
  EXPECT_EQ(count("\"knife_edge\": true"), 1u);
  EXPECT_EQ(count("\"knife_edge\": false"), 2u);

  // The audit fold obeys the same merge algebra as everything else:
  // offline absorption of the serialized per-run reports reproduces the
  // in-process aggregate byte for byte (audit block included).
  SweepAggregator offline("audit");
  for (std::size_t i = 0; i < 12; ++i) {
    const auto [r, m] = synthetic_run(i);
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(json_parse(r.to_json(&m), doc, &error)) << error;
    ASSERT_TRUE(offline.add_run_json(doc, &error)) << error;
  }
  EXPECT_EQ(json, offline.to_json());
}

TEST(Sweep, RejectsNonReportDocuments) {
  SweepAggregator agg("sweep_test");
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse("{\"schema\": \"wehey.sweep_report.v2\"}", doc));
  EXPECT_FALSE(agg.add_run_json(doc, &error));
  EXPECT_FALSE(error.empty());
  ASSERT_TRUE(json_parse("[1, 2]", doc));
  EXPECT_FALSE(agg.add_run_json(doc, &error));
  EXPECT_EQ(agg.runs(), 0u);
}

// The acceptance property: a real grid sweep aggregated from parallel
// trials is byte-identical across thread counts.
TEST(Sweep, WildSweepByteIdenticalAcrossThreadCounts) {
  using experiments::WildConfig;
  const auto isps = experiments::default_isp_models();
  WildConfig base;
  base.isp = isps[0];
  base.seed = 1;
  const auto t_diff = experiments::build_wild_t_diff(base, 8);

  const auto sweep_json = [&](unsigned threads) {
    const auto results = parallel::parallel_map(
        3,
        [&](std::size_t i) {
          WildConfig cfg = base;
          cfg.seed = 1000 + i * 17;
          char run_id[48];
          std::snprintf(run_id, sizeof(run_id), "wild_sweep.r%03zu", i);
          return experiments::run_wild_test_reported(
              cfg, t_diff, /*sanity_check=*/false, run_id);
        },
        threads);
    SweepAggregator agg("wild_sweep");
    for (const auto& res : results) agg.add_run(res.report, &res.metrics);
    return agg.to_json();
  };
  const std::string serial = sweep_json(1);
  const std::string pooled = sweep_json(4);
  EXPECT_EQ(serial, pooled);
  EXPECT_NE(serial.find("\"runs\": 3"), std::string::npos);
  EXPECT_NE(serial.find("single_original"), std::string::npos);
}

// ------------------------------------------------------------ compare

JsonValue parse(const std::string& text) {
  JsonValue doc;
  std::string error;
  EXPECT_TRUE(json_parse(text, doc, &error)) << error;
  return doc;
}

TEST(Compare, WithinToleranceAndDriftDetected) {
  const JsonValue base =
      parse("{\"values\": {\"score\": {\"mean\": 100.0}}, \"runs\": 10}");
  CompareOptions opts;
  opts.tolerance = 0.05;
  // 2% drift: fine.
  const auto ok = compare_reports(
      base, parse("{\"values\": {\"score\": {\"mean\": 102.0}}, "
                  "\"runs\": 10}"),
      opts);
  EXPECT_TRUE(ok.ok) << (ok.failures.empty() ? "" : ok.failures[0]);
  // 10% drift: out of tolerance.
  const auto drift = compare_reports(
      base, parse("{\"values\": {\"score\": {\"mean\": 110.0}}, "
                  "\"runs\": 10}"),
      opts);
  EXPECT_FALSE(drift.ok);
  ASSERT_EQ(drift.failures.size(), 1u);
  EXPECT_NE(drift.failures[0].find("values.score.mean"), std::string::npos);
  // Integer drift (runs changed) is caught by the same machinery.
  const auto fewer = compare_reports(
      base, parse("{\"values\": {\"score\": {\"mean\": 100.0}}, "
                  "\"runs\": 7}"),
      opts);
  EXPECT_FALSE(fewer.ok);
}

TEST(Compare, MissingKeysIgnoreAndFloors) {
  const JsonValue base = parse("{\"a\": 1.0, \"verdict\": \"ok\"}");
  CompareOptions opts;
  // Candidate dropped "a" -> failure; new key -> note only.
  const auto res =
      compare_reports(base, parse("{\"verdict\": \"ok\", \"b\": 2}"), opts);
  EXPECT_FALSE(res.ok);
  ASSERT_EQ(res.failures.size(), 1u);
  EXPECT_NE(res.failures[0].find("missing in candidate: a"),
            std::string::npos);
  ASSERT_EQ(res.notes.size(), 1u);
  EXPECT_NE(res.notes[0].find("b"), std::string::npos);
  // Verdict strings compare exactly.
  const auto verdict = compare_reports(
      base, parse("{\"a\": 1.0, \"verdict\": \"bad\"}"), opts);
  EXPECT_FALSE(verdict.ok);

  // min-key floors judge the candidate alone.
  CompareOptions floors;
  floors.min_keys.emplace_back("tput", 10.0);
  EXPECT_TRUE(compare_reports(parse("{\"tput\": 50.0}"),
                              parse("{\"tput\": 49.0}"), floors)
                  .ok);
  EXPECT_FALSE(compare_reports(parse("{\"tput\": 50.0}"),
                               parse("{\"tput\": 9.0}"), floors)
                   .ok);
  // A floor that matches nothing must fail loudly, not silently pass.
  CompareOptions dangling;
  dangling.min_keys.emplace_back("no_such_key", 1.0);
  EXPECT_FALSE(
      compare_reports(parse("{\"a\": 1}"), parse("{\"a\": 1}"), dangling)
          .ok);
}

TEST(Compare, PerKeyToleranceOverride) {
  CompareOptions opts;
  opts.tolerance = 0.01;
  opts.key_tolerances.emplace_back("noisy", 0.5);
  const auto res = compare_reports(
      parse("{\"noisy_metric\": 100.0, \"stable\": 100.0}"),
      parse("{\"noisy_metric\": 140.0, \"stable\": 100.5}"), opts);
  ASSERT_EQ(res.failures.size(), 0u) << res.failures[0];
}

TEST(Compare, RequireKeyGuardsSectionExistence) {
  const char* doc =
      "{\"a\": 1.0, \"knife_edge\": {\"margin_threshold\": 0.05, "
      "\"cells\": {\"ISP2\": {\"min_margin\": 0.01, \"runs_below\": 2}}}}";
  const JsonValue base = parse(doc);
  const JsonValue cand = parse(doc);

  // Existence is asserted against all candidate keys, independently of
  // the numeric diff: the section must be there, not merely undrifted.
  CompareOptions opts;
  opts.require_keys.push_back("knife_edge\\.margin_threshold");
  opts.require_keys.push_back("knife_edge\\.cells");
  EXPECT_TRUE(compare_reports(base, cand, opts).ok);

  // A pattern matching nothing fails loudly instead of silently turning
  // the gate into a no-op.
  opts.require_keys.push_back("decision");
  const auto res = compare_reports(base, cand, opts);
  EXPECT_FALSE(res.ok);
  ASSERT_EQ(res.failures.size(), 1u);
  EXPECT_NE(
      res.failures[0].find("require-key pattern matched nothing: decision"),
      std::string::npos);
}

// ----------------------------------------------- schema single-sourcing

/// The C++ constants and the JSON Schema files under tools/ must agree —
/// a version bump that misses one side fails here, not in CI archaeology.
// ------------------------------------------------------------ quantile

/// {p50, p90, p99} of histogram `name` in a document's "percentiles"
/// section. Numbers are written in shortest round-trip form, so the
/// parsed doubles are the writer's doubles bit for bit.
std::vector<double> percentiles_of(const JsonValue& doc,
                                   const std::string& name) {
  const JsonValue* section = doc.find("percentiles");
  const JsonValue* p = section != nullptr ? section->find(name) : nullptr;
  if (p == nullptr) return {};
  std::vector<double> out;
  for (const char* key : {"p50", "p90", "p99"}) {
    const JsonValue* v = p->find(key);
    out.push_back(v != nullptr ? v->num_or(-1.0) : -1.0);
  }
  return out;
}

std::string rendered_report(const JsonValue& doc) {
  std::FILE* f = std::tmpfile();
  EXPECT_NE(f, nullptr);
  if (f == nullptr) return {};
  render_report(doc, f);
  std::rewind(f);
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

TEST(Quantile, ReportSweepAndInspectShareOneImplementation) {
  // Crossing buckets in every position: the underflow bin (p50/p90 of
  // "edge.under"), the overflow bin ("edge.over"), and interior buckets
  // interpolated next to under- and overflow mass ("mixed").
  MetricsRegistry m;
  Histogram& under = m.histogram("edge.under", 0.0, 10.0, 5);
  for (int i = 0; i < 9; ++i) under.observe(-1.0 - i);
  under.observe(3.3);
  Histogram& over = m.histogram("edge.over", 0.0, 10.0, 5);
  over.observe(1.7);
  for (int i = 0; i < 9; ++i) over.observe(12.0 + i);
  Histogram& mixed = m.histogram("mixed", 0.0, 1.0, 7);
  mixed.observe(-0.25);
  for (int i = 0; i < 97; ++i) mixed.observe(0.013 * i);
  mixed.observe(7.5);
  EXPECT_EQ(histogram_quantile(under, 0.50), under.min());
  EXPECT_EQ(histogram_quantile(over, 0.50), over.max());

  RunReport r;
  r.run = "quantile_test.r000";
  const JsonValue report = parse(r.to_json(&m));
  SweepAggregator single("quantile_test");
  single.add_run(r, &m);
  const JsonValue sweep = parse(single.to_json());
  for (const auto& [name, h] : m.histograms()) {
    const std::vector<double> expected = {histogram_quantile(h, 0.50),
                                          histogram_quantile(h, 0.90),
                                          histogram_quantile(h, 0.99)};
    EXPECT_EQ(percentiles_of(report, name), expected) << name;
    EXPECT_EQ(percentiles_of(sweep, name), expected) << name;
  }

  // inspect prints the report's own percentiles, one row per histogram.
  const std::string rendered = rendered_report(report);
  for (const auto& [name, h] : m.histograms()) {
    char p50[32];
    std::snprintf(p50, sizeof(p50), "%10.4g", histogram_quantile(h, 0.50));
    const std::size_t row = rendered.find("  " + name + " ");
    ASSERT_NE(row, std::string::npos) << name;
    EXPECT_NE(rendered.find(p50, row), std::string::npos) << name;
  }
}

TEST(Schema, ToolsSchemasNameTheCppConstants) {
  const std::string root = WEHEY_SOURCE_DIR;
  std::string text;
  ASSERT_TRUE(read_file(root + "/tools/run_report_schema.json", text));
  JsonValue run_schema;
  std::string error;
  ASSERT_TRUE(json_parse(text, run_schema, &error)) << error;
  const JsonValue* run_enum = run_schema.find("properties");
  ASSERT_NE(run_enum, nullptr);
  run_enum = run_enum->find("schema");
  ASSERT_NE(run_enum, nullptr);
  run_enum = run_enum->find("enum");
  ASSERT_NE(run_enum, nullptr);
  // The readers accept exactly one version, so the schema names only it.
  ASSERT_EQ(run_enum->array.size(), 1u);
  EXPECT_EQ(run_enum->array[0].str, kRunReportSchema);

  ASSERT_TRUE(read_file(root + "/tools/sweep_report_schema.json", text));
  JsonValue sweep_schema;
  ASSERT_TRUE(json_parse(text, sweep_schema, &error)) << error;
  const JsonValue* sweep_const = sweep_schema.find("properties");
  ASSERT_NE(sweep_const, nullptr);
  sweep_const = sweep_const->find("schema");
  ASSERT_NE(sweep_const, nullptr);
  sweep_const = sweep_const->find("const");
  ASSERT_NE(sweep_const, nullptr);
  EXPECT_EQ(sweep_const->str, kSweepReportSchema);

  ASSERT_TRUE(read_file(root + "/tools/sweep_checkpoint_schema.json", text));
  JsonValue ckpt_schema;
  ASSERT_TRUE(json_parse(text, ckpt_schema, &error)) << error;
  const JsonValue* ckpt_const = ckpt_schema.find("properties");
  ASSERT_NE(ckpt_const, nullptr);
  ckpt_const = ckpt_const->find("schema");
  ASSERT_NE(ckpt_const, nullptr);
  ckpt_const = ckpt_const->find("const");
  ASSERT_NE(ckpt_const, nullptr);
  EXPECT_EQ(ckpt_const->str, kSweepCheckpointSchema);

}

// -------------------------------------------------- inspect hardening

TEST(Inspect, MalformedAndUnknownFilesFailWithoutPartialOutput) {
  const std::string dir = ::testing::TempDir();
  const std::string bad = dir + "/bad.json";
  ASSERT_TRUE(write_report_file(bad, "{\"schema\": \"wehey.run_report.v3\","));
  std::FILE* sink = std::fopen((dir + "/sink.txt").c_str(), "w");
  ASSERT_NE(sink, nullptr);
  EXPECT_FALSE(inspect_file(bad, sink));
  EXPECT_FALSE(inspect_file(dir + "/does_not_exist.json", sink));
  const std::string alien = dir + "/alien.json";
  ASSERT_TRUE(write_report_file(alien, "{\"hello\": 1}"));
  EXPECT_FALSE(inspect_file(alien, sink));
  // Nothing was rendered for any of the failures.
  std::fclose(sink);
  std::string rendered;
  ASSERT_TRUE(read_file(dir + "/sink.txt", rendered));
  EXPECT_TRUE(rendered.empty());
}

TEST(Inspect, RefusesChromeTraces) {
  // Traces open in any Chrome-trace viewer; inspect reads reports only,
  // and refuses a trace like any other foreign document.
  const std::string dir = ::testing::TempDir();
  const std::string trace = dir + "/trace.json";
  ASSERT_TRUE(write_report_file(
      trace,
      "{\"traceEvents\": [{\"name\": \"wehe_test\", \"cat\": \"session\", "
      "\"ph\": \"X\", \"ts\": 0, \"dur\": 1000, \"pid\": 0, \"tid\": 0}, "
      "{\"name\": \"queue.depth\", \"ph\": \"C\", \"ts\": 5, \"pid\": 0, "
      "\"tid\": 0, \"args\": {\"value\": 3}}]}"));
  const std::string sink_path = dir + "/trace_sink.txt";
  std::FILE* sink = std::fopen(sink_path.c_str(), "w");
  ASSERT_NE(sink, nullptr);
  ::testing::internal::CaptureStderr();
  const bool ok = inspect_file(trace, sink);
  const std::string err = ::testing::internal::GetCapturedStderr();
  std::fclose(sink);
  EXPECT_FALSE(ok);
  EXPECT_NE(err.find("not a wehey report"), std::string::npos) << err;
  std::string rendered;
  ASSERT_TRUE(read_file(sink_path, rendered));
  EXPECT_TRUE(rendered.empty()) << rendered;
}

TEST(Inspect, ParserRejectsPathologicalDocuments) {
  JsonValue doc;
  std::string error;
  // Unbounded nesting is refused at a fixed depth instead of recursing
  // until the stack gives out.
  EXPECT_FALSE(json_parse(std::string(100000, '['), doc, &error));
  EXPECT_EQ(error, "nesting too deep");
  std::string object_bomb;
  for (int i = 0; i < 1000; ++i) object_bomb += "{\"a\":";
  EXPECT_FALSE(json_parse(object_bomb, doc, &error));
  EXPECT_EQ(error, "nesting too deep");
  // Nesting inside the cap still parses.
  std::string deep_ok(40, '[');
  deep_ok.append(40, ']');
  EXPECT_TRUE(json_parse(deep_ok, doc, &error)) << error;
  // Truncated and malformed documents fail with a message, not a crash.
  for (const char* bad :
       {"", "{\"run\": [1, 2", "\"unterminated", "{\"a\" 1}", "{} trailing",
        "tru", "nul", "{\"a\":}", "[1,]", "{\"a\": \"\\x\"}"}) {
    EXPECT_FALSE(json_parse(bad, doc, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }

  // The same failures surface file-level: a pathological report file
  // inspects to false without emitting partial output.
  const std::string dir = ::testing::TempDir();
  const std::string deep = dir + "/deep.json";
  ASSERT_TRUE(write_report_file(deep, std::string(100000, '[')));
  const std::string sink_path = dir + "/deep_sink.txt";
  std::FILE* sink = std::fopen(sink_path.c_str(), "w");
  ASSERT_NE(sink, nullptr);
  EXPECT_FALSE(inspect_file(deep, sink));
  std::fclose(sink);
  std::string rendered;
  ASSERT_TRUE(read_file(sink_path, rendered));
  EXPECT_TRUE(rendered.empty());
}

TEST(Compare, FlattenKeysListsTheComparableKeySpace) {
  // Backs the --list-keys discovery flow in wehey_cli compare: sorted
  // dotted paths, arrays indexed, every leaf type included.
  const JsonValue doc = parse(
      "{\"b\": {\"y\": 1.5, \"x\": [2, \"s\"]}, \"a\": true, "
      "\"c\": null, \"d\": {}}");
  const std::vector<std::string> expected = {"a", "b.x[0]", "b.x[1]", "b.y",
                                             "c"};
  EXPECT_EQ(flatten_keys(doc), expected);
}

TEST(Inspect, DegradesGracefullyOnMissingOptionalSections) {
  // A bare report: no cell, ground truth, audit or histograms.
  RunReport r;
  r.run = "bare";
  r.verdict = "done";
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "/bare.json";
  ASSERT_TRUE(write_report_file(path, r.to_json(nullptr)));
  std::FILE* sink = std::fopen((dir + "/bare.txt").c_str(), "w");
  ASSERT_NE(sink, nullptr);
  EXPECT_TRUE(inspect_file(path, sink));
  std::fclose(sink);
  std::string rendered;
  ASSERT_TRUE(read_file(dir + "/bare.txt", rendered));
  EXPECT_NE(rendered.find(kRunReportSchema), std::string::npos);
  EXPECT_NE(rendered.find("bare"), std::string::npos);
  EXPECT_EQ(rendered.find("audit"), std::string::npos);
  EXPECT_EQ(rendered.find("percentiles"), std::string::npos);
}

TEST(Inspect, RefusesPreV5RunReports) {
  // Reports are regenerated, not archived: an older tag is refused by the
  // sweep merge and by inspect, which renders nothing for it.
  RunReport r;
  r.run = "old";
  std::string json = r.to_json(nullptr);
  const std::string tag = kRunReportSchema;
  json.replace(json.find(tag), tag.size(), "wehey.run_report.v4");
  SweepAggregator agg("old");
  std::string error;
  EXPECT_FALSE(agg.add_run_json(parse(json), &error));
  EXPECT_NE(error.find(kRunReportSchema), std::string::npos) << error;
  EXPECT_EQ(agg.runs(), 0u);

  // The retired engine-telemetry sidecar is refused by name, too.
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "/v4.json";
  const std::string sidecar = dir + "/sidecar.json";
  const std::string sidecar_tag = std::string("wehey.runtime") + "_report.v1";
  ASSERT_TRUE(write_report_file(path, json));
  ASSERT_TRUE(write_report_file(
      sidecar, "{\"schema\": \"" + sidecar_tag +
                   "\", \"run\": \"old\", \"wall_seconds\": 1.5, "
                   "\"scheduler\": {\"tasks\": 8}}"));
  const std::string sink_path = dir + "/v4.txt";
  std::FILE* sink = std::fopen(sink_path.c_str(), "w");
  ASSERT_NE(sink, nullptr);
  EXPECT_FALSE(inspect_file(path, sink));
  ::testing::internal::CaptureStderr();
  const bool sidecar_ok = inspect_file(sidecar, sink);
  const std::string sidecar_err = ::testing::internal::GetCapturedStderr();
  EXPECT_FALSE(sidecar_ok);
  EXPECT_NE(sidecar_err.find("unsupported schema \"" + sidecar_tag + "\""),
            std::string::npos)
      << sidecar_err;
  std::fclose(sink);
  std::string rendered;
  ASSERT_TRUE(read_file(sink_path, rendered));
  EXPECT_TRUE(rendered.empty());
}

TEST(Inspect, RendersSweepReports) {
  SweepAggregator agg("render_me");
  for (std::size_t i = 0; i < 4; ++i) {
    const auto [r, m] = synthetic_run(i);
    agg.add_run(r, &m);
  }
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "/sweep.json";
  ASSERT_TRUE(write_report_file(path, agg.to_json()));
  std::FILE* sink = std::fopen((dir + "/sweep.txt").c_str(), "w");
  ASSERT_NE(sink, nullptr);
  EXPECT_TRUE(inspect_file(path, sink));
  std::fclose(sink);
  std::string rendered;
  ASSERT_TRUE(read_file(dir + "/sweep.txt", rendered));
  EXPECT_NE(rendered.find("sweep report"), std::string::npos);
  EXPECT_NE(rendered.find("render_me"), std::string::npos);
  EXPECT_NE(rendered.find("cell0"), std::string::npos);
  // The v5 confusion-matrix table renders alongside the older sections.
  EXPECT_NE(rendered.find("AUDIT"), std::string::npos);
  EXPECT_NE(rendered.find("(grid)"), std::string::npos);
}

// ---------------------------------------------------- frozen fixtures

/// Real reports of the current schemas are frozen under tests/data/ —
/// today's tooling must keep accepting them. (CI also runs
/// tools/validate_report.py over the same files.)
TEST(Inspect, FrozenFixtureReportsStillRender) {
  const std::string root = WEHEY_SOURCE_DIR;
  const char* fixtures[] = {
      "/tests/data/run_report_v6.json",
      "/tests/data/sweep_report_v2.json",
  };
  const std::string dir = ::testing::TempDir();
  for (const char* fixture : fixtures) {
    const std::string sink_path = dir + "/fixture.txt";
    std::FILE* sink = std::fopen(sink_path.c_str(), "w");
    ASSERT_NE(sink, nullptr);
    EXPECT_TRUE(inspect_file(root + fixture, sink)) << fixture;
    std::fclose(sink);
    std::string rendered;
    ASSERT_TRUE(read_file(sink_path, rendered));
    EXPECT_FALSE(rendered.empty()) << fixture;
  }
}

TEST(Sweep, FrozenV4AndV5FixturesAbsorbMarginsAndAudit) {
  const std::string root = WEHEY_SOURCE_DIR;
  SweepAggregator agg("fixtures");
  std::string text;
  ASSERT_TRUE(read_file(root + "/tests/data/run_report_v6.json", text));
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse(text, doc, &error)) << error;
  ASSERT_TRUE(agg.add_run_json(doc, &error)) << error;
  EXPECT_EQ(agg.runs(), 1u);
  const std::string json = agg.to_json();
  // The report's decision margin joins the value summaries, and its audit
  // section makes the audit block exactly one true positive.
  EXPECT_NE(json.find("\"decision_margin\""), std::string::npos);
  const std::size_t start = json.find("\"audit\"");
  ASSERT_NE(start, std::string::npos);
  const std::string block =
      json.substr(start, json.find("\"cell_percentiles\"") - start);
  EXPECT_NE(block.find("\"tp\": 1"), std::string::npos) << block;
  EXPECT_NE(block.find("\"fn\": 0"), std::string::npos);
  EXPECT_NE(block.find("\"skipped\": 0"), std::string::npos);
  EXPECT_NE(block.find("\"accuracy\": 1"), std::string::npos);
}

// -------------------------------------------------------- run harness

/// A fresh directory for one test, removed afterwards.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_(std::filesystem::path(::testing::TempDir()) /
              (name + "." + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() { std::filesystem::remove_all(path_); }
  std::string str() const { return path_.string(); }
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

  /// Every file in the directory, by name.
  std::map<std::string, std::string> contents() const {
    std::map<std::string, std::string> out;
    for (const auto& f : std::filesystem::directory_iterator(path_)) {
      EXPECT_TRUE(read_file(f.path().string(),
                            out[f.path().filename().string()]));
    }
    return out;
  }

 private:
  std::filesystem::path path_;
};

/// Run synthetic runs 0..n-1 through one harness the way the bench grids
/// and `wehey_cli sweep` do — journaled runs re-absorbed, the rest added —
/// with the report files going to `dir` in `mode` ("" = none). Stops
/// after executing `kill_after` runs, as a sweep killed between runs.
void drive_sweep(const std::string& dir, const char* mode,
                 const std::string& journal, std::size_t n,
                 std::size_t kill_after = SIZE_MAX) {
  if (!dir.empty()) {
    ::setenv("WEHEY_REPORT_DIR", dir.c_str(), 1);
    ::setenv("WEHEY_REPORT_MODE", mode, 1);
  }
  {
    ObservedSweep harness("sweep_test", journal);
    std::size_t executed = 0;
    for (std::size_t i = 0; i < n && executed < kill_after; ++i) {
      const auto [r, m] = synthetic_run(i);
      if (const CheckpointEntry* entry = harness.cached(r.run)) {
        EXPECT_NE(harness.absorb_cached(*entry).type, JsonValue::Type::Null);
        continue;
      }
      harness.add_run(r, &m);
      ++executed;
    }
  }
  ::unsetenv("WEHEY_REPORT_DIR");
  ::unsetenv("WEHEY_REPORT_MODE");
}

TEST(Harness, KilledAndResumedSweepIsByteIdentical) {
  ScratchDir ref("harness_ref");
  drive_sweep(ref.str(), "sweep", "", 9);
  ScratchDir resumed("harness_resumed");
  const std::string journal = resumed.file("journal.jsonl");
  drive_sweep(resumed.str(), "sweep", journal, 9, /*kill_after=*/4);
  // The kill also tore the line being appended.
  std::FILE* f = std::fopen(journal.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fputs("{\"schema\": \"wehey.sweep_checkpoint.v1\", \"sw", f);
  std::fclose(f);
  drive_sweep(resumed.str(), "sweep", journal, 9);

  CheckpointJournal loaded;
  ASSERT_TRUE(CheckpointJournal::load(journal, loaded));
  EXPECT_EQ(loaded.size(), 9u);
  std::string want, got;
  ASSERT_TRUE(read_file(ref.file("sweep_test.sweep.json"), want));
  ASSERT_TRUE(read_file(resumed.file("sweep_test.sweep.json"), got));
  EXPECT_NE(want.find("\"runs\": 9"), std::string::npos);
  EXPECT_EQ(want, got);
}

TEST(Harness, JournaledRunsRewriteTheirPerRunFiles) {
  for (const char* mode : {"per-run", "both"}) {
    SCOPED_TRACE(mode);
    ScratchDir journal_dir("harness_journal");
    const std::string journal = journal_dir.file("journal.jsonl");
    ScratchDir executed("harness_executed");
    drive_sweep(executed.str(), mode, journal, 6);
    // A second pass over the complete journal executes nothing, yet
    // writes the same files, byte for byte.
    ScratchDir cached("harness_cached");
    drive_sweep(cached.str(), mode, journal, 6);
    const auto want = executed.contents();
    EXPECT_EQ(want.count("sweep_test.c0.r000.report.json"), 1u);
    EXPECT_EQ(want.size(), std::string(mode) == "both" ? 8u : 7u);
    EXPECT_EQ(cached.contents(), want);
  }
}

TEST(Harness, SweepModeWritesNoPerRunFiles) {
  ScratchDir dir("harness_sweep_mode");
  drive_sweep(dir.str(), "sweep", "", 6);
  const auto files = dir.contents();
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files.begin()->first, "sweep_test.sweep.json");
}

TEST(Harness, CorruptJournalStopsTheSweepAndStaysUntouched) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ScratchDir dir("harness_corrupt");
  const std::string journal = dir.file("journal.jsonl");
  drive_sweep("", "", journal, 2);
  // A flushed bad line between two good ones.
  std::string text;
  ASSERT_TRUE(read_file(journal, text));
  text.insert(text.find('\n') + 1, "{not json\n");
  ASSERT_TRUE(write_report_file(journal, text));
  EXPECT_EXIT(drive_sweep("", "", journal, 4), ::testing::ExitedWithCode(1),
              "journal.jsonl:2: malformed checkpoint line");
  std::string after;
  ASSERT_TRUE(read_file(journal, after));
  EXPECT_EQ(after, text);
}

// ----------------------------------------------------- report mode env

TEST(ReportMode, ParsesEnvironmentKnob) {
  ::unsetenv("WEHEY_REPORT_MODE");
  EXPECT_EQ(report_mode_from_env(), ReportMode::kPerRun);
  ::setenv("WEHEY_REPORT_MODE", "sweep", 1);
  EXPECT_EQ(report_mode_from_env(), ReportMode::kSweep);
  ::setenv("WEHEY_REPORT_MODE", "both", 1);
  EXPECT_EQ(report_mode_from_env(), ReportMode::kBoth);
  ::setenv("WEHEY_REPORT_MODE", "per-run", 1);
  EXPECT_EQ(report_mode_from_env(), ReportMode::kPerRun);
  // A typo is a usage error, not a silent per-run fallback.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ::setenv("WEHEY_REPORT_MODE", "wat", 1);
  EXPECT_EXIT(report_mode_from_env(), ::testing::ExitedWithCode(2),
              "unknown WEHEY_REPORT_MODE 'wat'; valid modes: "
              "per-run\\|sweep\\|both");
  ::unsetenv("WEHEY_REPORT_MODE");

  // Sweep-path resolution per mode.
  ::setenv("WEHEY_REPORT", "/tmp/x.json", 1);
  ::setenv("WEHEY_REPORT_MODE", "sweep", 1);
  EXPECT_EQ(sweep_path_from_env("r"), "/tmp/x.json");
  ::setenv("WEHEY_REPORT_MODE", "both", 1);
  EXPECT_EQ(sweep_path_from_env("r"), "/tmp/x.json.sweep.json");
  ::unsetenv("WEHEY_REPORT");
  ::setenv("WEHEY_REPORT_DIR", "/tmp", 1);
  EXPECT_EQ(sweep_path_from_env("r"), "/tmp/r.sweep.json");
  ::unsetenv("WEHEY_REPORT_DIR");
  ::unsetenv("WEHEY_REPORT_MODE");
  EXPECT_EQ(sweep_path_from_env("r"), "");
}

}  // namespace
}  // namespace wehey::obs
