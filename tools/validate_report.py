#!/usr/bin/env python3
"""Validate wehey report JSON files against the checked-in schemas.

Stdlib only (no jsonschema dependency): implements the small JSON-Schema
subset that tools/*_schema.json actually use — type, const, enum,
required, properties, additionalProperties, items, minimum.

Unknown keys fail loudly: any object whose schema declares "properties"
rejects keys it does not name unless the schema *explicitly* sets
"additionalProperties" — the permissive JSON-Schema default would let a
renamed or drifted report field slide through CI silently.

Each file picks its schema from its own "schema" field —
wehey.sweep_report.* validates against sweep_report_schema.json,
wehey.sweep_checkpoint.* against sweep_checkpoint_schema.json, and
anything else against run_report_schema.json. --schema forces one schema
for every file instead.

Checkpoint journals are JSONL (one checkpoint document per line): each
line validates against the checkpoint schema and its embedded serialized
report against the run-report schema. A torn trailing line (killed
mid-append) is reported but tolerated, matching the C++ loader.

Usage:
  tools/validate_report.py report.json sweep.json checkpoint.jsonl [...]
  tools/validate_report.py --schema tools/run_report_schema.json report.json
  tools/validate_report.py --trace trace.json          # chrome-trace sanity

Exit status is non-zero on the first failing file, so CI can gate on it.
"""

import argparse
import json
import os
import sys


def _type_ok(value, expected):
    if expected == "object":
        return isinstance(value, dict)
    if expected == "array":
        return isinstance(value, list)
    if expected == "string":
        return isinstance(value, str)
    if expected == "boolean":
        return isinstance(value, bool)
    if expected == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if expected == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if expected == "null":
        return value is None
    raise ValueError(f"unsupported schema type: {expected}")


def validate(value, schema, path="$"):
    """Return a list of error strings (empty = valid)."""
    errors = []
    if "const" in schema:
        if value != schema["const"]:
            errors.append(f"{path}: expected {schema['const']!r}, got {value!r}")
            return errors
    if "enum" in schema:
        if value not in schema["enum"]:
            errors.append(
                f"{path}: {value!r} not one of {schema['enum']!r}"
            )
            return errors
    if "type" in schema and not _type_ok(value, schema["type"]):
        errors.append(
            f"{path}: expected {schema['type']}, got {type(value).__name__}"
        )
        return errors
    if "minimum" in schema and isinstance(value, (int, float)):
        if not isinstance(value, bool) and value < schema["minimum"]:
            errors.append(f"{path}: {value} < minimum {schema['minimum']}")
    if isinstance(value, dict):
        for key in schema.get("required", []):
            if key not in value:
                errors.append(f"{path}: missing required key {key!r}")
        props = schema.get("properties", {})
        # Strict by default wherever the schema names its keys: a report
        # field that drifts (renamed, misspelled, new-but-undeclared) must
        # fail validation, not vanish into the permissive default.
        extra = schema.get("additionalProperties", not props)
        for key, sub in value.items():
            if key in props:
                errors.extend(validate(sub, props[key], f"{path}.{key}"))
            elif isinstance(extra, dict):
                errors.extend(validate(sub, extra, f"{path}.{key}"))
            elif extra is not True:
                errors.append(f"{path}: unexpected key {key!r}")
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            errors.extend(validate(item, schema["items"], f"{path}[{i}]"))
    return errors


def pick_schema(report, schemas, forced):
    """The checked-in schema matching the document's own 'schema' field."""
    if forced is not None:
        return forced
    tag = report.get("schema", "") if isinstance(report, dict) else ""
    if tag.startswith("wehey.sweep_report."):
        return schemas["sweep"]
    if tag.startswith("wehey.sweep_checkpoint."):
        return schemas["checkpoint"]
    return schemas["run"]


def check_checkpoint_journal(path, text, schemas, forced=None):
    """Validate a JSONL checkpoint journal line by line: the checkpoint
    document itself plus the run report embedded in its 'report' string.
    A torn trailing line is tolerated (noted, not fatal) — the C++ loader
    drops it on resume."""
    lines = text.split("\n")
    ok = True
    entries = 0
    cells = {}
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        where = f"{path}:{i + 1}"
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as e:
            if i == len(lines) - 1:
                print(f"{path}: torn trailing line {i + 1} (dropped on "
                      f"resume)")
                continue
            print(f"{where}: not JSON: {e}", file=sys.stderr)
            ok = False
            continue
        errors = validate(doc, pick_schema(doc, schemas, forced))
        if not errors and forced is None:
            try:
                embedded = json.loads(doc["report"])
            except json.JSONDecodeError as e:
                errors = [f"$.report: embedded report is not JSON: {e}"]
            else:
                errors = [f"$.report{err[1:]}" for err in
                          validate(embedded, schemas["run"])]
        for err in errors:
            print(f"{where}: {err}", file=sys.stderr)
            ok = False
        if not errors:
            entries += 1
            cells[doc.get("cell", "")] = cells.get(doc.get("cell", ""), 0) + 1
    if ok:
        by_cell = ", ".join(f"{c or '(none)'}={n}" for c, n in cells.items())
        print(f"{path}: OK (checkpoint journal, {entries} completed runs"
              + (f": {by_cell}" if by_cell else "") + ")")
    return ok


def check_report(path, schemas, forced=None):
    with open(path) as f:
        text = f.read()
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        # Not one JSON document — a JSONL checkpoint journal.
        return check_checkpoint_journal(path, text, schemas, forced)
    if (isinstance(report, dict)
            and report.get("schema", "").startswith("wehey.sweep_checkpoint.")):
        # A one-line journal parses as a single checkpoint document.
        return check_checkpoint_journal(path, text, schemas, forced)
    errors = validate(report, pick_schema(report, schemas, forced))
    for err in errors:
        print(f"{path}: {err}", file=sys.stderr)
    if errors:
        return False
    if isinstance(report, dict) and "sweep" in report:
        verdicts = ", ".join(
            f"{v}={n}" for v, n in report.get("verdicts", {}).items()
        )
        print(
            f"{path}: OK (sweep={report['sweep']!r}, "
            f"runs={report.get('runs', 0)}"
            + (f", verdicts: {verdicts}" if verdicts else "")
            + ")"
        )
    else:
        stages = ", ".join(s["name"] for s in report.get("stages", []))
        print(
            f"{path}: OK (run={report['run']!r}, verdict={report['verdict']!r}"
            + (f", stages: {stages}" if stages else "")
            + f", injected={report['injection'].get('total', 0)})"
        )
    return True


def check_trace(path):
    """Chrome-trace sanity: parses as JSON, has traceEvents, every event has
    the fields chrome://tracing needs, and span timestamps are ordered."""
    with open(path) as f:
        trace = json.load(f)
    ok = True
    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        print(f"{path}: no traceEvents array", file=sys.stderr)
        return False
    for i, ev in enumerate(events):
        for key in ("name", "ph", "pid"):
            if key not in ev:
                print(f"{path}: event {i} missing {key!r}", file=sys.stderr)
                ok = False
        if ev.get("ph") in ("X", "i", "C") and "ts" not in ev:
            print(f"{path}: event {i} ({ev.get('ph')}) has no ts",
                  file=sys.stderr)
            ok = False
        if ev.get("ph") == "X" and ev.get("dur", 0) < 0:
            print(f"{path}: event {i} has negative duration", file=sys.stderr)
            ok = False
    if ok:
        spans = sum(1 for ev in events if ev.get("ph") == "X")
        print(f"{path}: OK ({len(events)} events, {spans} spans, "
              f"{1 + max(ev.get('pid', 0) for ev in events)} pid tracks)")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("reports", nargs="*",
                        help="RunReport / sweep report JSON files")
    parser.add_argument("--schema", default=None,
                        help="force one schema file instead of picking by "
                             "each document's 'schema' field")
    parser.add_argument("--trace", action="append", default=[],
                        help="chrome-trace JSON file to sanity-check")
    args = parser.parse_args()

    if not args.reports and not args.trace:
        parser.error("nothing to validate")

    ok = True
    if args.reports:
        here = os.path.dirname(__file__)
        schemas = {}
        schema_files = {
            "run": "run_report_schema.json",
            "sweep": "sweep_report_schema.json",
            "checkpoint": "sweep_checkpoint_schema.json",
        }
        for kind, filename in schema_files.items():
            with open(os.path.join(here, filename)) as f:
                schemas[kind] = json.load(f)
        forced = None
        if args.schema is not None:
            with open(args.schema) as f:
                forced = json.load(f)
        for path in args.reports:
            ok &= check_report(path, schemas, forced)
    for path in args.trace:
        ok &= check_trace(path)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
