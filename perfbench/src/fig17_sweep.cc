/**
 * @file
 * fig17_sweep: the Figure 17 lineup (on-touch, access-counter,
 * duplication, GRIT) x the eight Table II apps at footprint divisor 4
 * and the default 70 % memory, on an ExperimentEngine with 3 workers
 * streaming traces through its shared TraceCache. Capacity eviction,
 * fabric traffic, write-collapses, counter migrations and trace
 * sharing do the work; translation is light.
 *
 * 3 workers, not 4: one core stays free for the engine's trace
 * producer threads, which made runs steadier on a 4-core host.
 */

#include <iomanip>
#include <memory>
#include <sstream>

#include "bench.h"
#include "harness/experiment_engine.h"
#include "harness/results_io.h"
#include "workload/trace_cache.h"

namespace perfbench {

namespace {

using grit::harness::ExperimentEngine;
using grit::harness::RunPlan;
using grit::harness::RunResult;

constexpr unsigned kWorkers = 3;
/**
 * Engine + plan constructions timed before each measured sweep (µs
 * each today, so many).
 */
constexpr int kSetupSamples = 150;
constexpr double kSetupBudgetSec = 0.1;
/** The engine's default chunk size, used by the traced replay too. */
constexpr std::uint64_t kChunkAccesses = 65536;

/** GRIT's mean improvement over each baseline, as the paper states it. */
struct PaperClaim
{
    const char *baseline;
    double paperPct;
};
constexpr PaperClaim kPaperClaims[] = {
    {"on-touch", 60.0}, {"access-counter", 49.0}, {"duplication", 29.0}};

grit::workload::WorkloadParams
sweepParams(const Options &options)
{
    grit::workload::WorkloadParams params;
    params.seed = options.seed;
    params.footprintDivisor = options.smoke ? 128 : 4;
    if (options.smoke)
        params.intensity = 0.2;
    return params;
}

RunPlan
makePlan(const grit::workload::WorkloadParams &params)
{
    using grit::harness::makeConfig;
    using grit::harness::PolicyKind;
    const std::vector<grit::harness::LabeledConfig> lineup = {
        {"on-touch", makeConfig(PolicyKind::kOnTouch, 4)},
        {"access-counter", makeConfig(PolicyKind::kAccessCounter, 4)},
        {"duplication", makeConfig(PolicyKind::kDuplication, 4)},
        {"grit", makeConfig(PolicyKind::kGrit, 4)},
    };
    return RunPlan::matrix({grit::workload::kAllApps.begin(),
                            grit::workload::kAllApps.end()},
                           lineup, params);
}

ExperimentEngine::Options
engineOptions(unsigned workers)
{
    ExperimentEngine::Options options;
    options.jobs = workers;
    options.traceChunkAccesses = kChunkAccesses;
    return options;
}

std::string
cellId(const std::string &row, const std::string &label)
{
    return row + "/" + label;
}

/** Digest-check every cell of @p sweep; returns its simulated accesses. */
std::uint64_t
checkSweep(const grit::harness::SweepResult &sweep, Report &report,
           const std::string &phase)
{
    for (const auto &failure : sweep.failures)
        report.fail(phase + ": " + cellId(failure.row, failure.label) +
                    " quarantined: " + failure.error.str());
    std::uint64_t accesses = 0;
    for (const auto &[row, byLabel] : sweep.matrix)
        for (const auto &[label, result] : byLabel) {
            if (result.partial)
                continue;  // already a quarantined failure above
            accesses += result.accesses;
            report.checkDigest(cellId(row, label), resultDigest(result),
                               phase);
        }
    return accesses;
}

std::string
fixed(double value, int digits)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(digits) << value;
    return os.str();
}

}  // namespace

void
runFig17(const Options &options, Report &report)
{
    const auto params = sweepParams(options);

    const auto setUp = [&] {
        const auto start = Clock::now();
        ExperimentEngine engine(engineOptions(kWorkers));
        const RunPlan plan = makePlan(params);
        return secondsSince(start);
    };

    // One untimed sweep first: the process's first sweep also pays heap
    // growth and cold caches, and ran up to 30 % slower than the rest,
    // which made the slowest-sweep latency the least steady figure.
    {
        ExperimentEngine engine(engineOptions(kWorkers));
        const RunPlan plan = makePlan(params);
        const auto sweep =
            engine.runResilient(plan, grit::harness::ResilientOptions{});
        report.attempted += plan.size();
        checkSweep(sweep, report, "warm-up");
    }

    std::vector<std::uint64_t> cacheMisses;
    const auto phase = Clock::now();
    do {
        sampleSetUps(report, kSetupSamples, kSetupBudgetSec, setUp);
        report.beginRep();
        const auto start = Clock::now();
        ExperimentEngine engine(engineOptions(kWorkers));
        const RunPlan plan = makePlan(params);
        report.setupSeconds.push_back(secondsSince(start));
        const auto sweepStart = Clock::now();
        const auto sweep =
            engine.runResilient(plan, grit::harness::ResilientOptions{});
        const double sweepSec = secondsSince(sweepStart);
        report.latencyMs.push_back(secondsSince(start) * 1e3);
        report.attempted += plan.size();
        const std::uint64_t accesses = checkSweep(sweep, report, "timed");
        report.addRep({sweepSec, accesses, plan.size()});

        const auto &cache = engine.traceCache();
        cacheMisses.push_back(cache.misses());
        if (report.reps.size() == 1) {
            const double lookups =
                static_cast<double>(cache.hits() + cache.misses());
            report.layers["workload.cache_hits"] =
                static_cast<double>(cache.hits());
            report.layers["workload.cache_misses"] =
                static_cast<double>(cache.misses());
            report.layers["workload.cache_hit_ratio"] =
                lookups > 0 ? static_cast<double>(cache.hits()) / lookups
                            : 0.0;
            report.layers["workload.cache_bytes"] =
                static_cast<double>(cache.bytes());
            report.layers["workload.cache_evictions"] =
                static_cast<double>(cache.evictions());
            report.layers["harness.cells_failed"] =
                static_cast<double>(sweep.failures.size());
            for (const PaperClaim &claim : kPaperClaims) {
                const double pct = grit::harness::meanImprovementPct(
                    sweep.matrix, claim.baseline, "grit");
                report.checked[std::string("improvement_pct.") +
                               claim.baseline] = pct;
                report.notes.push_back(
                    std::string("GRIT vs ") + claim.baseline + ": " +
                    (pct >= 0 ? "+" : "") + fixed(pct, 1) +
                    " % (paper +" + fixed(claim.paperPct, 0) +
                    " %, model error " + fixed(pct - claim.paperPct, 1) +
                    " points)");
            }
        }
    } while (secondsSince(phase) < options.seconds);

    std::string misses = "trace-cache misses per sweep (" +
                         std::to_string(kWorkers) + " workers):";
    for (const std::uint64_t m : cacheMisses)
        misses.append(" ").append(std::to_string(m));
    report.notes.push_back(misses);

    if (!options.trace)
        return;

    const RunPlan plan = makePlan(params);

    // One sweep on a single worker: its results must equal the
    // 3-worker sweeps', and its time is the traced replay's baseline.
    {
        ExperimentEngine engine(engineOptions(1));
        const auto start = Clock::now();
        const auto sweep =
            engine.runResilient(plan, grit::harness::ResilientOptions{});
        report.untracedSeconds = secondsSince(start);
        report.attempted += plan.size();
        checkSweep(sweep, report, "1-worker");
        report.notes.push_back("trace-cache misses with 1 worker: " +
                               std::to_string(engine.traceCache().misses()));
    }

    // Traced replay: the plan's cells one at a time through the public
    // calls the engine makes for each cell, so every cell gets spans.
    SpanRecorder recorder;
    grit::workload::TraceCache cache;
    std::uint64_t chunks = 0;
    LayerCounts counts;
    grit::harness::ResultMatrix matrix;
    const auto start = Clock::now();
    for (const auto &cell : plan.cells()) {
        const std::string id = cellId(cell.row, cell.label);
        ++report.attempted;
        ScopedSpan cellSpan(&recorder, "harness.cell", id);
        grit::workload::StreamedWorkload sw;
        {
            ScopedSpan span(&recorder, "workload.open", id);
            sw = cache.openWorkload(cell.app, cell.params, kChunkAccesses);
        }
        decorateStreams(sw, recorder, id, chunks);
        auto config = cell.config;
        config.pageSizeStats = true;
        config.fabricStats = true;
        RunResult result;
        try {
            std::unique_ptr<grit::harness::Simulator> simulator;
            {
                ScopedSpan span(&recorder, "harness.construct", id);
                simulator = std::make_unique<grit::harness::Simulator>(
                    config, std::move(sw));
            }
            {
                ScopedSpan span(&recorder, "harness.run", id);
                result = simulator->run(/*salvage_partial=*/true);
            }
            ScopedSpan span(&recorder, "harness.teardown", id);
            simulator.reset();
        } catch (const std::exception &e) {
            report.fail("traced: " + id + " threw: " + e.what());
            continue;
        }
        if (result.partial) {
            report.fail("traced: " + id + " stopped early");
            continue;
        }
        counts.add(result);
        report.tracedAccesses += result.accesses;
        matrix[cell.row][cell.label] = withoutOptInCounters(result);
        report.checkDigest(id, resultDigest(matrix[cell.row][cell.label]),
                           "traced");
    }
    {
        ScopedSpan span(&recorder, "stats.serialize", "sweep");
        std::ostringstream os;
        grit::harness::writeResultMatrix(os, "perfbench", "fig17_sweep",
                                         params, matrix);
    }
    report.tracedSeconds = secondsSince(start);
    report.spans = recorder.spans();
    counts.writeLayers(report);
    report.layers["workload.chunks"] = static_cast<double>(chunks);
    std::vector<double> sweeps;
    for (const auto &rep : report.reps)
        sweeps.push_back(rep.seconds);
    report.layers["harness.sweep_s"] = median(sweeps);
    report.workers = kWorkers;
}

}  // namespace perfbench
