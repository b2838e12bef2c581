/**
 * @file
 * scale_1m: one GRIT cell over the SCALE generator with 2^20 pages,
 * every page resident (memoryFraction 0), replayed from
 * GeneratedTraceStreams on one simulation thread. Translation and
 * fault service do the work; capacity eviction, the engine and trace
 * sharing do none.
 */

#include <memory>

#include "bench.h"
#include "harness/config.h"
#include "workload/generators.h"

namespace perfbench {

namespace {

using grit::harness::RunResult;
using grit::harness::Simulator;
using grit::workload::ScaleParams;

/** Chunk size of the streams (the engine's default). */
constexpr std::uint64_t kChunkAccesses = 65536;

/** Extra set-ups before each measured cell, beyond its own. */
constexpr int kSetupSamples = 3;
constexpr double kSetupBudgetSec = 0.5;

ScaleParams
scaleParams(const Options &options)
{
    ScaleParams sp;
    sp.seed = options.seed;
    if (options.smoke) {
        sp.pages = 1u << 12;
        sp.randomPerGpu = 1u << 10;
        sp.sharedPerGpu = 1u << 6;
    } else {
        sp.pages = 1u << 20;
        sp.randomPerGpu = 1u << 18;
        sp.sharedPerGpu = 1u << 13;
    }
    return sp;
}

/**
 * The set-up a user of the cell pays: the SCALE counting pass, stream
 * creation and Simulator construction. With a @p recorder (the traced
 * phase) the calls get spans, the streams a timing decorator counting
 * into @p chunks, and the opt-in translation/fabric counters are on.
 */
std::unique_ptr<Simulator>
setUp(const ScaleParams &sp, SpanRecorder *recorder = nullptr,
      std::uint64_t *chunks = nullptr)
{
    const bool traced = recorder != nullptr;
    auto config = grit::harness::makeConfig(
        grit::harness::PolicyKind::kGrit, sp.numGpus);
    config.memoryFraction = 0.0;
    config.pageSizeStats = traced;
    config.fabricStats = traced;

    grit::workload::StreamedWorkload sw;
    {
        ScopedSpan span(recorder, "workload.count", "scale");
        grit::workload::CountingSink counting(sp.numGpus);
        grit::workload::generateScaleTrace(sp, counting);
        sw.accesses = counting.counts();
    }
    {
        ScopedSpan span(recorder, "workload.open", "scale");
        sw.meta = grit::workload::scaleWorkloadShell(sp);
        for (unsigned g = 0; g < sp.numGpus; ++g)
            sw.streams.push_back(
                std::make_unique<grit::workload::GeneratedTraceStream>(
                    [sp](grit::workload::TraceSink &sink) {
                        grit::workload::generateScaleTrace(sp, sink);
                    },
                    g, kChunkAccesses));
    }
    if (traced)
        decorateStreams(sw, *recorder, "scale", *chunks);
    ScopedSpan span(recorder, "harness.construct", "scale");
    return std::make_unique<Simulator>(config, std::move(sw));
}

/** Run one set-up cell; false (and a failed op) when it threw. */
bool
runCell(Simulator &simulator, SpanRecorder *recorder, Report &report,
        RunResult &result)
{
    ScopedSpan span(recorder, "harness.run", "scale");
    try {
        result = simulator.run(/*salvage_partial=*/true);
    } catch (const std::exception &e) {
        report.fail(std::string("scale cell threw: ") + e.what());
        return false;
    }
    if (result.partial) {
        report.fail("scale cell stopped early: " +
                    (result.error ? result.error->str() : "partial"));
        return false;
    }
    return true;
}

}  // namespace

void
runScale(const Options &options, Report &report)
{
    const ScaleParams sp = scaleParams(options);

    const auto phase = Clock::now();
    do {
        // Set-ups that are not followed by a run: the median of several
        // is steadier than the one per measured cell.
        sampleSetUps(report, kSetupSamples, kSetupBudgetSec, [&] {
            const auto start = Clock::now();
            auto simulator = setUp(sp);
            return secondsSince(start);
        });
        report.beginRep();
        const auto start = Clock::now();
        auto simulator = setUp(sp);
        report.setupSeconds.push_back(secondsSince(start));
        const auto runStart = Clock::now();
        RunResult result;
        ++report.attempted;
        const bool ok = runCell(*simulator, nullptr, report, result);
        const double runSec = secondsSince(runStart);
        report.latencyMs.push_back(secondsSince(start) * 1e3);
        report.addRep({runSec, ok ? result.accesses : 0, 1});
        if (ok)
            report.checkDigest("scale", resultDigest(result), "timed");
    } while (secondsSince(phase) < options.seconds);

    if (!options.trace)
        return;

    // Traced phase: one cell with spans around every benchmark call and
    // the opt-in translation/fabric counters switched on.
    SpanRecorder recorder;
    std::uint64_t chunks = 0;
    const auto start = Clock::now();
    RunResult result;
    bool ok = false;
    {
        ScopedSpan cell(&recorder, "harness.cell", "scale");
        auto simulator = setUp(sp, &recorder, &chunks);
        ++report.attempted;
        ok = runCell(*simulator, &recorder, report, result);
        report.tracedSeconds = secondsSince(start);
        ScopedSpan teardown(&recorder, "harness.teardown", "scale");
        simulator.reset();
    }
    report.untracedSeconds = median(report.latencyMs) / 1e3;
    report.spans = recorder.spans();
    if (ok) {
        report.checkDigest("scale",
                           resultDigest(withoutOptInCounters(result)),
                           "traced");
        LayerCounts counts;
        counts.add(result);
        counts.writeLayers(report);
        report.tracedAccesses = result.accesses;
    }
    report.layers["workload.chunks"] = static_cast<double>(chunks);
}

}  // namespace perfbench
