#!/usr/bin/env python3
"""Validate a "grit-results" JSON document (schema version 2).

Usage: check_results_schema.py FILE [FILE ...]
       some_binary --json - | check_results_schema.py -

The schema is documented in docs/METRICS.md. This checker is
intentionally stdlib-only so it runs anywhere CI runs. It validates the
envelope, the per-run metric keys and types, the latency-breakdown and
scheme-accesses sub-objects, optional timelines, the tables section,
per-run partial/error, the failure manifest, the sweep-stats section
and the service-counters section.
Exit status is 0 when every input validates, 1 otherwise.
"""

import json
import sys

SCHEMA_NAME = "grit-results"
SCHEMA_VERSION = 2

ERROR_CODES = [
    "config-invalid",
    "bad-argument",
    "chaos-spec",
    "trace-load",
    "event-limit",
    "no-progress",
    "schedule-in-past",
    "invariant",
    "deadline",
    "interrupted",
    "journal",
    "store-corrupt",
    "service-overloaded",
    "service-draining",
    "internal",
]

# Scalar run metrics: name -> allowed types.
RUN_SCALARS = {
    "cycles": int,
    "accesses": int,
    "accesses_batched": int,  # optional: predates streamed replay

    "local_faults": int,
    "protection_faults": int,
    "total_faults": int,
    "evictions": int,
    "peak_replicas": int,
    "oversubscription_rate": (int, float),
}

# RUN_SCALARS keys a document may omit (introduced after version 2
# shipped; version-2 documents stay purely additive).
OPTIONAL_RUN_SCALARS = {"accesses_batched"}

# The simulation-service counters section (docs/SERVICE.md).
SERVICE_KEYS = [
    "requests",
    "hits",
    "misses",
    "deduped",
    "executed",
    "rejected_overload",
    "rejected_draining",
    "bad_requests",
    "failures",
    "store_entries",
    "store_scanned",
    "store_valid",
    "store_quarantined",
    "store_truncated",
]

BREAKDOWN_KEYS = [
    "local",
    "host",
    "page_migration",
    "remote_access",
    "page_duplication",
    "write_collapse",
    "total",
]

SCHEME_KEYS = ["none", "on_touch", "access_counter", "duplication"]

TIMELINE_KEYS = [
    "fault",
    "migration",
    "duplication",
    "collapse",
    "remote_access",
    "eviction",
]


class SchemaError(Exception):
    pass


def expect(cond, where, message):
    if not cond:
        raise SchemaError(f"{where}: {message}")


def expect_type(value, types, where):
    # bool is an int subclass; never accept it where a number is wanted.
    expect(
        isinstance(value, types) and not isinstance(value, bool),
        where,
        f"expected {types}, got {type(value).__name__} ({value!r})",
    )


def check_counters(counters, where):
    expect(isinstance(counters, dict), where, "counters must be an object")
    for name, value in counters.items():
        expect_type(value, int, f"{where}.{name}")


def check_timeline(timeline, where):
    expect(isinstance(timeline, dict), where, "timeline must be an object")
    expect_type(timeline.get("interval_cycles"), int,
                f"{where}.interval_cycles")
    expect(timeline.get("keys") == TIMELINE_KEYS, where,
           f"keys must be {TIMELINE_KEYS}, got {timeline.get('keys')}")
    intervals = timeline.get("intervals")
    expect(isinstance(intervals, list), where,
           "intervals must be an array")
    for i, row in enumerate(intervals):
        expect(isinstance(row, list) and len(row) == len(TIMELINE_KEYS),
               f"{where}.intervals[{i}]",
               f"expected {len(TIMELINE_KEYS)} columns")
        for v in row:
            expect_type(v, int, f"{where}.intervals[{i}]")


def check_error(error, where):
    expect(isinstance(error, dict), where, "error must be an object")
    expect(list(error.keys()) == ["code", "message", "context"], where,
           f"error keys must be [code, message, context], got "
           f"{list(error.keys())}")
    expect(error["code"] in ERROR_CODES, f"{where}.code",
           f"unknown error code {error['code']!r}")
    expect_type(error["message"], str, f"{where}.message")
    expect_type(error["context"], str, f"{where}.context")


def check_run(run, where):
    expect(isinstance(run, dict), where, "run must be an object")
    expect_type(run.get("row"), str, f"{where}.row")
    expect_type(run.get("label"), str, f"{where}.label")
    for key, types in RUN_SCALARS.items():
        if key in OPTIONAL_RUN_SCALARS and key not in run:
            continue
        expect(key in run, where, f"missing metric {key!r}")
        expect_type(run[key], types, f"{where}.{key}")
    schemes = run.get("scheme_accesses")
    expect(isinstance(schemes, dict), where,
           "scheme_accesses must be an object")
    expect(list(schemes.keys()) == SCHEME_KEYS, f"{where}.scheme_accesses",
           f"keys must be {SCHEME_KEYS}, got {list(schemes.keys())}")
    for name, value in schemes.items():
        expect_type(value, int, f"{where}.scheme_accesses.{name}")
    breakdown = run.get("latency_breakdown")
    expect(isinstance(breakdown, dict), where,
           "latency_breakdown must be an object")
    expect(list(breakdown.keys()) == BREAKDOWN_KEYS,
           f"{where}.latency_breakdown",
           f"keys must be {BREAKDOWN_KEYS}, got {list(breakdown.keys())}")
    for name, value in breakdown.items():
        expect_type(value, int, f"{where}.latency_breakdown.{name}")
    if "timeline" in run:
        check_timeline(run["timeline"], f"{where}.timeline")
    expect("counters" in run, where, "missing counters object")
    check_counters(run["counters"], f"{where}.counters")
    # Version-2 salvage: a truncated run carries partial + its error.
    if "partial" in run or "error" in run:
        expect(run.get("partial") is True, where,
               "partial must be true when present")
        expect("error" in run, where, "partial run must carry an error")
        check_error(run["error"], f"{where}.error")


def check_failure(failure, where):
    expect(isinstance(failure, dict), where, "failure must be an object")
    expect_type(failure.get("row"), str, f"{where}.row")
    expect_type(failure.get("label"), str, f"{where}.label")
    fingerprint = failure.get("fingerprint")
    expect_type(fingerprint, str, f"{where}.fingerprint")
    expect(len(fingerprint) == 16
           and all(c in "0123456789abcdef" for c in fingerprint),
           f"{where}.fingerprint",
           f"expected 16 lowercase hex chars, got {fingerprint!r}")
    check_error(failure.get("error"), f"{where}.error")
    attempts = failure.get("attempts")
    expect_type(attempts, int, f"{where}.attempts")
    expect(attempts >= 1, f"{where}.attempts", "attempts must be >= 1")
    expect(isinstance(failure.get("salvaged"), bool), where,
           "salvaged must be a bool")
    known = {"row", "label", "fingerprint", "error", "attempts",
             "salvaged"}
    extra = set(failure) - known
    expect(not extra, where, f"unknown failure keys: {sorted(extra)}")


def check_sweep(sweep, where):
    expect(isinstance(sweep, dict), where, "sweep must be an object")
    for key in ("executed", "reused", "skipped"):
        expect_type(sweep.get(key), int, f"{where}.{key}")
    cache = sweep.get("cache")
    expect(isinstance(cache, dict), where, "sweep.cache must be an object")
    for key in ("hits", "misses", "evictions", "bytes", "byte_budget"):
        expect_type(cache.get(key), int, f"{where}.cache.{key}")
    expect(set(sweep) == {"executed", "reused", "skipped", "cache"} and
           set(cache) == {"hits", "misses", "evictions", "bytes",
                          "byte_budget"},
           where, "unexpected sweep keys")


def check_service(service, where):
    expect(isinstance(service, dict), where, "service must be an object")
    expect(list(service.keys()) == SERVICE_KEYS, where,
           f"keys must be {SERVICE_KEYS}, got {list(service.keys())}")
    for key in SERVICE_KEYS:
        expect_type(service[key], int, f"{where}.{key}")
        expect(service[key] >= 0, f"{where}.{key}",
               "counters must be non-negative")


def check_table(table, where):
    expect(isinstance(table, dict), where, "table must be an object")
    expect_type(table.get("name"), str, f"{where}.name")
    columns = table.get("columns")
    expect(isinstance(columns, list) and columns, where,
           "columns must be a non-empty array")
    for c in columns:
        expect_type(c, str, f"{where}.columns")
    rows = table.get("rows")
    expect(isinstance(rows, list), where, "rows must be an array")
    for i, row in enumerate(rows):
        expect(isinstance(row, list) and len(row) == len(columns),
               f"{where}.rows[{i}]",
               f"expected {len(columns)} cells, got "
               f"{len(row) if isinstance(row, list) else type(row)}")
        for cell in row:
            expect_type(cell, str, f"{where}.rows[{i}]")


def check_document(doc, where):
    expect(isinstance(doc, dict), where, "document must be an object")
    expect(doc.get("schema") == SCHEMA_NAME, where,
           f"schema must be {SCHEMA_NAME!r}, got {doc.get('schema')!r}")
    version = doc.get("version")
    expect(version == SCHEMA_VERSION, where,
           f"version must be {SCHEMA_VERSION}, got {version!r}")
    expect_type(doc.get("generator"), str, f"{where}.generator")
    expect_type(doc.get("title"), str, f"{where}.title")
    params = doc.get("params")
    expect(isinstance(params, dict), where, "params must be an object")
    expect_type(params.get("footprint_divisor"), int,
                f"{where}.params.footprint_divisor")
    expect_type(params.get("intensity"), (int, float),
                f"{where}.params.intensity")
    expect_type(params.get("seed"), int, f"{where}.params.seed")
    expect("runs" in doc or "tables" in doc, where,
           "document must contain runs and/or tables")
    for i, run in enumerate(doc.get("runs", [])):
        check_run(run, f"{where}.runs[{i}]")
    for i, table in enumerate(doc.get("tables", [])):
        check_table(table, f"{where}.tables[{i}]")
    for i, failure in enumerate(doc.get("failures", [])):
        check_failure(failure, f"{where}.failures[{i}]")
    if "sweep" in doc:
        check_sweep(doc["sweep"], f"{where}.sweep")
    if "service" in doc:
        check_service(doc["service"], f"{where}.service")
    known = {"schema", "version", "generator", "title", "params", "runs",
             "tables", "failures", "sweep", "service"}
    extra = set(doc) - known
    expect(not extra, where, f"unknown top-level keys: {sorted(extra)}")


def parse_document(text):
    """Parse a grit-results document, tolerating leading report text.

    `binary --json -` appends the JSON document to the human-readable
    report on stdout; the document itself is a single line, so fall
    back to the last line that parses when the whole input does not.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        for line in reversed(text.splitlines()):
            line = line.strip()
            if line.startswith("{"):
                return json.loads(line)
        raise


def check_file(path):
    name = "<stdin>" if path == "-" else path
    try:
        if path == "-":
            doc = parse_document(sys.stdin.read())
        else:
            with open(path, encoding="utf-8") as f:
                doc = parse_document(f.read())
    except (OSError, json.JSONDecodeError) as err:
        print(f"FAIL {name}: {err}", file=sys.stderr)
        return False
    try:
        check_document(doc, name)
    except SchemaError as err:
        print(f"FAIL {err}", file=sys.stderr)
        return False
    runs = len(doc.get("runs", []))
    tables = len(doc.get("tables", []))
    note = ""
    if doc.get("failures"):
        note = f", {len(doc['failures'])} quarantined failure(s)"
    print(f"ok   {name}: {runs} run(s), {tables} table(s){note}")
    return True


def main(argv):
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    ok = True
    for path in argv:
        ok = check_file(path) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
