/**
 * @file
 * Single-run diagnostic: run one application under one policy and dump
 * every metric the simulator produces — cycles, latency breakdown, and
 * the full counter set.
 *
 * Usage: diag_run [APP] [POLICY] [flags]   (see --help for the flags)
 *
 * `--json` writes a one-run "grit-results" document (docs/METRICS.md)
 * including the per-interval event timeline; `--trace` writes a Chrome
 * trace-event JSON timeline of page lifecycle events, loadable in
 * Perfetto or about://tracing. A path of "-" selects stdout.
 *
 * `--chaos <spec>` enables deterministic fault injection and `--audit`
 * cross-layer invariant audits (docs/ROBUSTNESS.md documents both);
 * chaos/audit counters land in the text dump and the JSON document.
 *
 * The run executes on the resilient path, so the sweep flags work here
 * too: `--deadline`/`--event-budget` convert a hung run (e.g. chaos
 * `hang:at=N`) into a quarantined timeout with salvaged partial
 * counters, and the exit code follows the bench contract (0 complete,
 * 2 usage error, 3 quarantined, 128+signal on SIGINT/SIGTERM).
 */

#include <iostream>

#include "bench_util.h"
#include "stats/latency_breakdown.h"

static int
run(const grit::bench::BenchArgs &args, const std::string &appName,
    const std::string &kindName)
{
    using namespace grit;

    const auto app = workload::appFromName(appName);
    if (!app.has_value())
        throw sim::SimException(
            sim::ErrorCode::kBadArgument,
            "unknown application \"" + appName +
                "\" (Table II abbreviations: BFS, BS, C2D, FIR, GEMM, "
                "MM, SC, ST)",
            "diag_run");
    const auto kind = harness::policyKindFromName(kindName);
    if (!kind.has_value())
        throw sim::SimException(
            sim::ErrorCode::kBadArgument,
            "unknown policy \"" + kindName +
                "\" (try grit, on-touch, access-counter, duplication, "
                "first-touch, ideal, griffin-dpc, gps)",
            "diag_run");

    const auto params = grit::bench::benchParams();
    harness::SystemConfig config = harness::makeConfig(*kind, 4);
    config.timelineIntervalCycles = stats::kDefaultTimelineIntervalCycles;
    grit::bench::applyOverrides(args, config);
    const auto trace = grit::bench::makeTrace(args);
    config.trace = trace.get();

    // One-cell resilient plan: journal/resume, watchdogs, quarantine,
    // and SIGINT/SIGTERM drain all behave exactly as in the sweeps.
    const std::string row = workload::appMeta(*app).abbr;
    const std::string label = harness::policyKindName(*kind);
    harness::RunPlan plan;
    plan.addCell(row, label, config, *app, params);
    auto engine = grit::bench::makeEngine(args);
    const auto matrix = grit::bench::runPlanResilient(engine, plan, args);

    const auto rowIt = matrix.find(row);
    if (rowIt == matrix.end() ||
        rowIt->second.find(label) == rowIt->second.end()) {
        // Quarantined without salvage; the diagnostic already went to
        // stderr and guardedMain turns the report into exit code 3.
        grit::bench::maybeWriteJson(args, "diag_run",
                                    "Single-run diagnostic", params,
                                    matrix);
        return 0;
    }
    const harness::RunResult &r = rowIt->second.at(label);

    if (r.partial)
        std::cout << "partial 1"
                  << (r.error ? " (" + r.error->str() + ")" : "")
                  << "\n";
    if (config.chaos.any())
        std::cout << "chaos " << config.chaos.summary() << "\n";
    if (config.audit) {
        std::cout << "audit_findings " << r.auditFindings.size() << "\n";
        for (const std::string &finding : r.auditFindings)
            std::cout << "  " << finding << "\n";
    }

    std::cout << "cycles " << r.cycles << "\naccesses " << r.accesses
              << "\n";
    std::cout << "breakdown_total " << r.breakdown.total() << "\n";
    for (unsigned k = 0; k < stats::kLatencyKinds; ++k)
        std::cout << "  "
                  << stats::latencyKindName(
                         static_cast<stats::LatencyKind>(k))
                  << " "
                  << r.breakdown.get(static_cast<stats::LatencyKind>(k))
                  << "\n";
    for (const auto &[k, v] : r.counters)
        std::cout << k << " " << v << "\n";

    grit::bench::maybeWriteJson(args, "diag_run",
                                "Single-run diagnostic", params, matrix);
    grit::bench::maybeWriteTrace(args, trace.get());
    return 0;
}

int
main(int argc, char **argv)
{
    grit::bench::BenchArgs args("diag_run",
                                "run one app under one policy and dump "
                                "every metric");
    std::string appName = "BFS";
    std::string kindName = "on-touch";
    args.cli.positional("APP", &appName,
                        "Table II application abbreviation (default BFS)",
                        /*required=*/false);
    args.cli.positional(
        "POLICY", &kindName,
        "placement policy, e.g. grit or on-touch (default on-touch)",
        /*required=*/false);
    return grit::bench::guardedMain(
        argc, argv, args, [&] { return run(args, appName, kindName); });
}
