#!/usr/bin/env python3
"""The repository benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload scale_1m|fig17_sweep|serve_mix \
        --seed N --seconds S --trace 0|1

builds perfbench/ (and with it the grit library) from source into
.bench_build/, runs one workload, checks its simulated results, prints
a human-readable report and, as the last line of standard output, one
JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones.

Other modes:
    --smoke-test        every workload at a tiny size, timed and traced;
                        checks that every BENCHMARK.json metric is printed
                        with its unit and that the output check passes and
                        catches a wrong digest. Exit 0 on success.
    --record-digests    rewrite perfbench/expected_digests.json from this
                        build (seeds 1 and 2, full and smoke sizes).
    --expect-seed M     check against seed M's recorded digests (the
                        output check must then fail for M != N).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SCRATCH = ROOT / ".bench_build" / "run"
TRACES = ROOT / ".bench_build" / "traces"
BINARY = BUILD / "grit_perfbench"
DIGESTS = HERE / "expected_digests.json"
WORKLOADS = ("scale_1m", "fig17_sweep", "serve_mix")
# Seeds with recorded digests: the generators' default and a held-out one.
RECORDED_SEEDS = (1, 2)
# A run must end within 180 s; leave room for the report.
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """A failure that ends the run without a result line."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the benchmark with the grit library."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"program sources not found under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    build_log = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    with open(build_log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = build_log.read_text().splitlines()[-20:]
                raise BenchError("build failed:\n" + "\n".join(tail))


def run_binary(workload, seed, seconds, trace, small):
    """Run one workload; returns the raw report document."""
    SCRATCH.mkdir(parents=True, exist_ok=True)
    out = SCRATCH / f"{workload}-{seed}-{int(trace)}-{os.getpid()}.json"
    argv = [str(BINARY), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0",
            # Relative, so the service socket path stays short.
            "--scratch", os.path.relpath(SCRATCH, ROOT), "--out", str(out)]
    if small:
        argv.append("--smoke")
    # The library reads GRIT_* variables (jobs, trace-cache budget,
    # streaming); the workloads set what they need themselves.
    env = {k: v for k, v in os.environ.items() if not k.startswith("GRIT_")}
    try:
        proc = subprocess.run(argv, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, env=env)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} did not finish in {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{workload} exited {proc.returncode}: "
                         f"{proc.stderr.strip()}")
    try:
        return json.loads(out.read_text())
    finally:
        out.unlink(missing_ok=True)


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def cpu_jiffies():
    """(stolen, total) CPU time of all CPUs so far, from /proc/stat;
    None where that is unavailable."""
    try:
        with open("/proc/stat") as f:
            fields = [int(v) for v in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return (fields[7], sum(fields)) if len(fields) == 8 else None


def percentile(values, p):
    """Linear-interpolated p-th percentile (p in 0..100)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_percentile(n):
    """Highest standard percentile with at least 10 samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return None


def check_output(raw, expect_seed, small):
    """Compare the run's cell digests with the recorded ones.

    Returns (failed operations, description). Seeds without recorded
    digests rely on the program's own cross-checks: repeated runs of a
    cell agree, and in the traced run the traced and timed results (and
    1 and 3 engine workers) agree.
    """
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    size = "smoke" if small else "full"
    expected = recorded.get(size, {}).get(raw["workload"], {}).get(
        str(expect_seed))
    if expected is None:
        return 0, (f"no recorded digests for seed {expect_seed}; "
                   "repetitions (and traced vs timed, 1 vs 3 workers) "
                   "checked against each other")
    failed = 0
    bad = []
    got = raw["digests"]
    for cell, digest in expected["digests"].items():
        if got.get(cell) != digest:
            failed += max(1, raw["uses"].get(cell, 0))
            bad.append(cell)
    for cell in got.keys() - expected["digests"].keys():
        failed += raw["uses"].get(cell, 1)
        bad.append(cell)
    for name, value in expected.get("checked", {}).items():
        if raw["checked"].get(name) != value:
            failed += 1
            bad.append(name)
    if bad:
        return failed, (f"{len(bad)} results differ from seed "
                        f"{expect_seed}'s record, e.g. "
                        f"{', '.join(sorted(bad)[:4])}")
    return 0, (f"{len(expected['digests'])} cell digests match seed "
               f"{expect_seed}'s record")


def end_to_end_metrics(raw):
    reps = raw["reps"]
    lat = raw["latency_ms"]
    rates = [r["accesses"] / r["seconds"] for r in reps if r["seconds"] > 0]
    reqs = [r["requests"] / r["seconds"] for r in reps if r["seconds"] > 0]
    return {
        "accesses_per_s": statistics.median(rates) if rates else 0.0,
        "requests_per_s": statistics.median(reqs) if reqs else 0.0,
        "latency_p50_ms": statistics.median(lat),
        "latency_p99_ms": percentile(lat, 99.0),
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in reps),
    }


def span_tables(spans):
    """Total and self seconds per span name (self = minus child spans)."""
    total, child = {}, {}
    for s in spans:
        d = s["end"] - s["start"]
        total[s["name"]] = total.get(s["name"], 0.0) + d
        if s["parent"] >= 0:
            parent = spans[s["parent"]]["name"]
            child[parent] = child.get(parent, 0.0) + d
    self_time = {n: t - child.get(n, 0.0) for n, t in total.items()}
    return total, self_time


# Per-layer metrics measured as the summed duration of a span name.
SPAN_TOTALS = {
    "workload.count_s": "workload.count",
    "workload.open_s": "workload.open",
    "workload.next_s": "workload.next",
    "harness.construct_s": "harness.construct",
    "harness.run_s": "harness.run",
    "stats.serialize_s": "stats.serialize",
    "service.start_s": "service.start",
}


def per_layer_metrics(raw):
    """The program's modelled counts plus the span-derived host times;
    a metric is absent when its layer never ran in this workload."""
    spans = raw["spans"]
    total, self_time = span_tables(spans)
    layers = dict(raw["layers"])
    for metric, span in SPAN_TOTALS.items():
        if span in total:
            layers[metric] = total[span]
    if "harness.run" in total:
        layers["harness.run_self_s"] = self_time["harness.run"]
        if raw["traced_accesses"]:
            layers["harness.ns_per_access"] = (
                total["harness.run"] * 1e9 / raw["traced_accesses"])
    cells = [s["end"] - s["start"] for s in spans
             if s["name"] == "harness.cell"]
    if cells:
        layers["harness.cell_s"] = statistics.mean(cells)
        if raw["workers"] and layers.get("harness.sweep_s"):
            layers["harness.busy_share"] = (
                sum(cells) / (raw["workers"] * layers["harness.sweep_s"]))
    return layers, total, self_time


def write_chrome_trace(raw):
    """Spans as Chrome trace-event JSON (the format diag_run --trace
    writes); returns the file's path relative to the checkout."""
    TRACES.mkdir(parents=True, exist_ok=True)
    events = []
    for i, s in enumerate(raw["spans"]):
        events.append({
            "name": s["name"], "cat": s["name"].split(".")[0], "ph": "X",
            "ts": s["start"] * 1e6, "dur": (s["end"] - s["start"]) * 1e6,
            "pid": 1, "tid": s["thread"],
            "args": {"span": i, "parent": s["parent"], "id": s["id"]},
        })
    path = TRACES / f"{raw['workload']}-seed{raw['seed']}.json"
    path.write_text(json.dumps({"displayTimeUnit": "ms",
                                "traceEvents": events}))
    return os.path.relpath(path, ROOT)


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def timing_line(name, samples, unit):
    """A timing's median, the highest percentile with at least 10
    samples beyond it, and its sample count."""
    tail = tail_percentile(len(samples))
    return (f"  {name}: median {fmt(statistics.median(samples))} {unit}, "
            + (f"p{tail:g} {fmt(percentile(samples, tail))} {unit}"
               if tail else "no percentile with 10 samples beyond it")
            + f", {len(samples)} samples")


def measure(workload, seed, seconds, trace, small=False, expect_seed=None):
    """Run one workload; returns (result object, report lines, names of
    the metrics the workload produced)."""
    before = cpu_jiffies()
    raw = run_binary(workload, seed, seconds, trace, small)
    after = cpu_jiffies()
    bench = spec()
    lines = [f"workload {workload}  seed {seed}  "
             f"{'traced' if trace else 'timed'}"
             f"{'  (small)' if small else ''}"]
    if before and after and after[1] > before[1]:
        # Host load shows here; it slows the workloads that keep more
        # threads busy most.
        stolen = (after[0] - before[0]) / (after[1] - before[1])
        lines.append(f"  host: {stolen * 100:.1f} % of CPU time stolen by "
                     "the hypervisor during the run")
    lines += ["  " + n for n in raw["notes"]]
    failed_check, check_line = check_output(
        raw, seed if expect_seed is None else expect_seed, small)
    lines.append("  output check: " + check_line)
    lines += ["  failed: " + f for f in raw["failures"]]
    # A wrong cell fails every operation that returned it, and no more.
    failed = min(raw["failed"] + failed_check, raw["attempted"])

    metrics = {}
    produced = set()
    if not trace:
        values = end_to_end_metrics(raw)
        lines.append(timing_line("round trip", raw["latency_ms"], "ms"))
        lines.append(timing_line("repetition",
                                 [r["seconds"] for r in raw["reps"]], "s"))
        lines.append(timing_line("set-up", raw["setup_s"], "s"))
        for m in bench["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]],
                                  "unit": m["unit"]}
        produced = set(values)
    else:
        values, total, self_time = per_layer_metrics(raw)
        trace_path = write_chrome_trace(raw)
        overhead = (raw["traced_s"] / raw["untraced_s"] - 1.0
                    if raw["untraced_s"] else 0.0)
        lines.append(f"  spans: {len(raw['spans'])} written to {trace_path}")
        lines.append(f"  tracing overhead: {overhead * 100:+.1f} % "
                     f"(traced {raw['traced_s']:.3f} s vs untraced "
                     f"{raw['untraced_s']:.3f} s)")
        lines.append("  self time per span (s; span time minus child spans):")
        for name, t in sorted(self_time.items(), key=lambda kv: -kv[1]):
            lines.append(f"    {name:20s} {t:10.4f}  "
                         f"(total {total[name]:.4f})")
        modules = {}
        for name, t in self_time.items():
            module = name.split(".")[0]
            modules[module] = modules.get(module, 0.0) + t
        lines.append("  self time per layer (s): " + ", ".join(
            f"{module} {t:.4f}" for module, t in
            sorted(modules.items(), key=lambda kv: -kv[1])))
        for m in bench["per_layer"]:
            metrics[m["name"]] = {"value": values.get(m["name"], 0.0),
                                  "unit": m["unit"]}
        produced = set(values)
    for name, m in metrics.items():
        note = "" if name in produced else "  (not exercised here)"
        lines.append(f"  {name} = {fmt(m['value'])} {m['unit']}{note}")
    result = {"correct": failed == 0 and raw["attempted"] > 0,
              "attempted": raw["attempted"], "failed": failed,
              "metrics": metrics}
    return result, lines, produced


def smoke_test():
    """The benchmark's own test: tiny runs of every workload."""
    bench = spec()
    problems = []
    seen = set()
    for workload in WORKLOADS:
        for trace in (False, True):
            result, lines, produced = measure(workload, 1, 0.5, trace,
                                              small=True)
            print("\n".join(lines))
            seen.update(produced)
            wanted = bench["per_layer" if trace else "end_to_end"]
            for m in wanted:
                got = result["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append(f"{workload}: {m['name']} missing")
                elif not trace and not got["value"] > 0:
                    problems.append(f"{workload}: {m['name']} is 0")
            if not result["correct"]:
                problems.append(f"{workload}: output check failed")
    for m in bench["per_layer"]:
        if m["name"] not in seen:
            problems.append(f"{m['name']} is produced by no workload")
    # The check must catch a difference: seed 1 against seed 2's record.
    for workload in WORKLOADS:
        result, lines, _ = measure(workload, 1, 0.0, False, small=True,
                                   expect_seed=2)
        print("\n".join(lines))
        if result["correct"] or result["failed"] == 0:
            problems.append(f"{workload}: a wrong-seed check passed")
    for p in problems:
        print("SMOKE FAIL: " + p)
    print("smoke test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def record_digests():
    """Rewrite expected_digests.json from this build's results."""
    recorded = {}
    for small in (True, False):
        size = "smoke" if small else "full"
        for workload in WORKLOADS:
            for seed in RECORDED_SEEDS:
                log(f"recording {size} {workload} seed {seed}")
                raw = run_binary(workload, seed, 0.0, False, small)
                if raw["failed"]:
                    raise BenchError(f"{workload} failed while recording: "
                                     f"{raw['failures']}")
                recorded.setdefault(size, {}).setdefault(workload, {})[
                    str(seed)] = {"digests": raw["digests"],
                                  "checked": raw["checked"]}
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    log(f"wrote {DIGESTS}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expect-seed", type=int)
    parser.add_argument("--smoke-test", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    try:
        build()
        if args.smoke_test:
            return smoke_test()
        if args.record_digests:
            return record_digests()
        if not args.workload:
            parser.error("--workload is required")
        result, lines, _ = measure(args.workload, args.seed, args.seconds,
                                   bool(args.trace),
                                   expect_seed=args.expect_seed)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
