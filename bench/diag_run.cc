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
#include <memory>

#include "driver.h"
#include "simcore/trace_recorder.h"
#include "stats/latency_breakdown.h"

namespace {

/** Write @p trace as Chrome trace-event JSON to @p path ("-" = stdout). */
void
writeTrace(const std::string &path, const grit::sim::TraceRecorder &trace)
{
    auto file = grit::bench::openOutput(path);
    trace.writeChromeTrace(file ? *file : std::cout);
    (file ? *file : std::cout) << "\n";
    if (file) {
        std::cerr << "trace: " << path << " (" << trace.size()
                  << " events";
        if (trace.dropped() > 0)
            std::cerr << ", " << trace.dropped() << " dropped";
        std::cerr << ")\n";
    }
}

int
run(grit::bench::SweepFlags &flags, const std::string &appName,
    const std::string &kindName, const std::string &tracePath)
{
    using namespace grit;

    flags.resolve();
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

    const auto params = bench::benchParams();
    harness::SystemConfig config = flags.config(*kind);
    config.timelineIntervalCycles = stats::kDefaultTimelineIntervalCycles;
    // One cell, so the recorder is never shared across simulators.
    std::unique_ptr<sim::TraceRecorder> trace;
    if (!tracePath.empty())
        trace = std::make_unique<sim::TraceRecorder>();
    config.trace = trace.get();

    // One-cell resilient plan: journal/resume, watchdogs, quarantine,
    // and SIGINT/SIGTERM drain all behave exactly as in the sweeps.
    const std::string row = workload::appMeta(*app).abbr;
    const std::string label = harness::policyKindName(*kind);
    harness::RunPlan plan;
    plan.addCell(row, label, config, *app, params);
    bool ran = false;
    const int code = bench::sweepMain(
        flags, "Single-run diagnostic", params, plan,
        [&](const harness::ResultMatrix &matrix) {
            const auto rowIt = matrix.find(row);
            if (rowIt == matrix.end() || !rowIt->second.contains(label))
                return;  // quarantined without salvage: exit code 3
            ran = true;
            const harness::RunResult &r = rowIt->second.at(label);

            if (r.partial)
                std::cout << "partial 1"
                          << (r.error ? " (" + r.error->str() + ")" : "")
                          << "\n";
            if (config.chaos.any())
                std::cout << "chaos " << config.chaos.summary() << "\n";
            if (config.audit) {
                std::cout << "audit_findings " << r.auditFindings.size()
                          << "\n";
                for (const std::string &finding : r.auditFindings)
                    std::cout << "  " << finding << "\n";
            }

            std::cout << "cycles " << r.cycles << "\naccesses "
                      << r.accesses << "\n";
            std::cout << "breakdown_total " << r.breakdown.total() << "\n";
            for (unsigned k = 0; k < stats::kLatencyKinds; ++k)
                std::cout << "  "
                          << stats::latencyKindName(
                                 static_cast<stats::LatencyKind>(k))
                          << " "
                          << r.breakdown.get(
                                 static_cast<stats::LatencyKind>(k))
                          << "\n";
            for (const auto &[k, v] : r.counters)
                std::cout << k << " " << v << "\n";
        });
    if (trace && ran)
        writeTrace(tracePath, *trace);
    return code;
}

}  // namespace

int
main(int argc, char **argv)
{
    grit::harness::Cli cli("diag_run",
                           "run one app under one policy and dump every "
                           "metric");
    grit::bench::SweepFlags flags(cli);
    std::string tracePath;
    std::string appName = "BFS";
    std::string kindName = "on-touch";
    cli.flag("--trace", &tracePath, "PATH",
             "write a Chrome trace-event timeline (\"-\" = stdout)");
    cli.positional("APP", &appName,
                   "Table II application abbreviation (default BFS)",
                   /*required=*/false);
    cli.positional(
        "POLICY", &kindName,
        "placement policy, e.g. grit or on-touch (default on-touch)",
        /*required=*/false);
    return grit::bench::guardedMain(cli, argc, argv, [&] {
        return run(flags, appName, kindName, tracePath);
    });
}
