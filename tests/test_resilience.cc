/** @file Resilient-sweep suite: journal-entry round trips, crash-safe
 *  resume bit-identity, watchdog deadlines and event budgets, hung-cell
 *  quarantine with partial-result salvage, cooperative cancellation,
 *  and the byte-budgeted LRU trace cache. */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <memory>
#include <sstream>
#include <optional>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/experiment_engine.h"
#include "harness/record_log.h"
#include "harness/results_io.h"
#include "harness/run_journal.h"
#include "harness/simulator.h"
#include "simcore/sim_error.h"
#include "stats/json_value.h"
#include "stats/json_writer.h"
#include "temp_path.h"
#include "workload/apps.h"
#include "workload/trace_cache.h"

namespace grit::harness {
namespace {

/** Small fast workload parameters. */
workload::WorkloadParams
fastParams()
{
    workload::WorkloadParams params;
    params.footprintDivisor = 64;
    params.intensity = 0.25;
    return params;
}

/** A 2-app x 2-config plan small enough for every test to sweep. */
RunPlan
smallPlan()
{
    const std::vector<LabeledConfig> configs = {
        {"on-touch", makeConfig(PolicyKind::kOnTouch, 4)},
        {"grit", makeConfig(PolicyKind::kGrit, 4)},
    };
    return RunPlan::matrix({workload::AppId::kGemm, workload::AppId::kSt},
                           configs, fastParams());
}

/** Full field-wise RunResult comparison, including the new fields. */
void
expectSameResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.localFaults, b.localFaults);
    EXPECT_EQ(a.protectionFaults, b.protectionFaults);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.peakReplicas, b.peakReplicas);
    EXPECT_EQ(a.schemeAccesses, b.schemeAccesses);
    for (unsigned k = 0; k < stats::kLatencyKinds; ++k) {
        const auto kind = static_cast<stats::LatencyKind>(k);
        EXPECT_EQ(a.breakdown.get(kind), b.breakdown.get(kind));
    }
    EXPECT_EQ(a.counters, b.counters);
    EXPECT_EQ(a.auditFindings, b.auditFindings);
    EXPECT_EQ(a.partial, b.partial);
    ASSERT_EQ(a.error.has_value(), b.error.has_value());
    if (a.error.has_value()) {
        EXPECT_EQ(a.error->str(), b.error->str());
    }
    ASSERT_EQ(a.timeline.has_value(), b.timeline.has_value());
    if (a.timeline.has_value()) {
        EXPECT_EQ(a.timeline->intervalCycles(),
                  b.timeline->intervalCycles());
        EXPECT_EQ(a.timeline->keys(), b.timeline->keys());
        ASSERT_EQ(a.timeline->intervals(), b.timeline->intervals());
        for (std::size_t i = 0; i < a.timeline->intervals(); ++i)
            for (unsigned k = 0; k < a.timeline->keys(); ++k)
                EXPECT_EQ(a.timeline->get(i, k), b.timeline->get(i, k))
                    << "interval " << i << " key " << k;
    }
}

void
expectSameMatrix(const ResultMatrix &a, const ResultMatrix &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (const auto &[row, runs] : a) {
        ASSERT_TRUE(b.count(row)) << row;
        ASSERT_EQ(runs.size(), b.at(row).size()) << row;
        for (const auto &[label, result] : runs) {
            SCOPED_TRACE(row + "/" + label);
            ASSERT_TRUE(b.at(row).count(label));
            expectSameResult(result, b.at(row).at(label));
        }
    }
}

/** Sweep-journal identity of this suite's journals. */
const RecordLogHeader kJournal{kJournalSchema, kJournalVersion,
                               "test_resilience"};

using test::TempPath;

/**
 * Sweep @p plan on a fresh engine under @p options, resuming from and
 * appending to the journal at @p path.
 */
SweepResult
journaledSweep(const RunPlan &plan, const TempPath &path,
               ResilientOptions options = {})
{
    RecordLog journal;
    journal.open(path.str(), kJournal);
    options.journal = &journal;
    return ExperimentEngine().runResilient(plan, options);
}

// ----------------------------------------------------------- fingerprints

TEST(RunFingerprint, DigestIgnoresResilienceKnobsOnly)
{
    SystemConfig base = makeConfig(PolicyKind::kGrit, 4);
    const std::uint64_t digest = configDigest(base);
    EXPECT_EQ(digest, configDigest(base));  // deterministic

    // The watchdog/cancel knobs must NOT perturb the digest: resuming
    // with a different --deadline still matches journaled fingerprints.
    SystemConfig tweaked = base;
    tweaked.wallDeadlineSec = 12.5;
    tweaked.eventBudget = 99999;
    static std::atomic<int> flag{0};
    tweaked.cancelFlag = &flag;
    EXPECT_EQ(digest, configDigest(tweaked));

    // Everything else must.
    SystemConfig policy = makeConfig(PolicyKind::kOnTouch, 4);
    EXPECT_NE(digest, configDigest(policy));
    SystemConfig gpus = makeConfig(PolicyKind::kGrit, 8);
    EXPECT_NE(digest, configDigest(gpus));
    SystemConfig chaos = base;
    chaos.chaos = sim::ChaosSpec::parse("hang:at=100");
    EXPECT_NE(digest, configDigest(chaos));
    // accesses_batched and the tlb.* counters are in the result.
    SystemConfig unbatched = base;
    unbatched.batchAccesses = false;
    EXPECT_NE(digest, configDigest(unbatched));
    SystemConfig pageStats = base;
    pageStats.pageSizeStats = true;
    EXPECT_NE(digest, configDigest(pageStats));
    SystemConfig counter = base;
    counter.counterThreshold += 1;
    EXPECT_NE(digest, configDigest(counter));
}

TEST(RunFingerprint, CoversWorkloadIdentityAndParams)
{
    const RunPlan plan = smallPlan();
    const auto &cells = plan.cells();
    std::vector<std::string> prints;
    for (const RunCell &cell : cells) {
        const std::string fp = runFingerprint(cell);
        EXPECT_EQ(fp.size(), 16u);
        EXPECT_EQ(fp, runFingerprint(cell));  // stable
        for (const std::string &other : prints)
            EXPECT_NE(fp, other);  // unique across the plan
        prints.push_back(fp);
    }

    RunCell tweaked = cells[0];
    tweaked.params.intensity = 0.5;
    EXPECT_NE(runFingerprint(tweaked), prints[0]);
}

// ------------------------------------------------------- JSON round trips

TEST(RunJournalFormat, RunResultRoundTripsLosslessly)
{
    // A real run with timeline enabled exercises every serialized field.
    SystemConfig config = makeConfig(PolicyKind::kGrit, 4);
    config.timelineIntervalCycles = 512;
    RunPlan plan;
    plan.addCell("GEMM", "grit", config, workload::AppId::kGemm,
                 fastParams());
    ExperimentEngine engine;
    RunResult result = engine.runResilient(plan, ResilientOptions{})
                           .matrix.at("GEMM")
                           .at("grit");
    ASSERT_TRUE(result.timeline.has_value());
    result.partial = true;
    result.error.emplace(sim::ErrorCode::kDeadline, "budget exhausted",
                         "workload GEMM");

    std::ostringstream os;
    stats::JsonWriter w(os);
    writeRunResultJson(w, result);
    const RunResult back =
        runResultFromJson(stats::JsonValue::parse(os.str()));
    expectSameResult(result, back);
}

TEST(RunJournalFormat, EntryLineRoundTripsOkAndFailed)
{
    JournalEntry ok;
    ok.fingerprint = "00deadbeef001234";
    ok.row = "GEMM";
    ok.label = "grit";
    ok.status = "ok";
    ok.attempts = 1;
    ok.hasResult = true;
    ok.result.cycles = 42;
    ok.result.counters = {{"uvm.faults", 7}};

    const JournalEntry backOk = journalEntryFromLine(journalLine(ok));
    EXPECT_EQ(backOk.fingerprint, ok.fingerprint);
    EXPECT_EQ(backOk.status, "ok");
    EXPECT_TRUE(backOk.hasResult);
    EXPECT_EQ(backOk.result.cycles, 42u);
    EXPECT_EQ(backOk.result.counters, ok.result.counters);

    JournalEntry failed = ok;
    failed.status = "failed";
    failed.attempts = 3;
    failed.hasResult = false;
    failed.result = RunResult{};
    failed.error.emplace(sim::ErrorCode::kDeadline, "hung", "ctx");

    const JournalEntry backFail =
        journalEntryFromLine(journalLine(failed));
    EXPECT_EQ(backFail.status, "failed");
    EXPECT_EQ(backFail.attempts, 3u);
    EXPECT_FALSE(backFail.hasResult);
    ASSERT_TRUE(backFail.error.has_value());
    EXPECT_EQ(backFail.error->code, sim::ErrorCode::kDeadline);
    EXPECT_EQ(backFail.error->str(), failed.error->str());
}

TEST(RunJournalFormat, RejectsMalformedLines)
{
    EXPECT_THROW(journalEntryFromLine("{\"truncated\":"),
                 sim::SimException);
    // "ok" status without a result payload is corrupt.
    EXPECT_THROW(
        journalEntryFromLine(
            "{\"fingerprint\":\"ab\",\"row\":\"r\",\"label\":\"l\","
            "\"status\":\"ok\",\"attempts\":1}"),
        sim::SimException);
    try {
        journalEntryFromLine("[1,2,3]");
        FAIL() << "expected SimException";
    } catch (const sim::SimException &e) {
        EXPECT_EQ(e.code(), sim::ErrorCode::kJournal);
    }
}

// --------------------------------------------------------- resume merges

TEST(ResilientSweep, FullJournalReplayIsBitIdentical)
{
    const RunPlan plan = smallPlan();
    ExperimentEngine reference;
    const ResultMatrix expected =
        reference.runResilient(plan, ResilientOptions{}).matrix;

    TempPath path("grit_resume_full.jsonl");
    const SweepResult sweep = journaledSweep(plan, path);
    EXPECT_TRUE(sweep.complete());
    EXPECT_EQ(sweep.executed, plan.size());
    EXPECT_EQ(sweep.reused, 0u);
    expectSameMatrix(expected, sweep.matrix);

    // A second engine resuming from the journal re-simulates nothing
    // and still merges to the bit-identical matrix.
    const SweepResult replay = journaledSweep(plan, path);
    EXPECT_TRUE(replay.complete());
    EXPECT_EQ(replay.executed, 0u);
    EXPECT_EQ(replay.reused, plan.size());
    expectSameMatrix(expected, replay.matrix);
}

TEST(ResilientSweep, PartialJournalResumesOnlyMissingCells)
{
    const RunPlan plan = smallPlan();
    ExperimentEngine reference;
    const ResultMatrix expected =
        reference.runResilient(plan, ResilientOptions{}).matrix;

    // Journal only half the sweep — the on-disk state a kill -9 leaves.
    TempPath path("grit_resume_partial.jsonl");
    RunPlan half;
    for (std::size_t i = 0; i < plan.size(); i += 2) {
        const RunCell &cell = plan.cells()[i];
        half.addCell(cell.row, cell.label, cell.config, cell.app,
                     cell.params);
    }
    ASSERT_TRUE(journaledSweep(half, path).complete());

    const SweepResult sweep = journaledSweep(plan, path);
    EXPECT_TRUE(sweep.complete());
    EXPECT_EQ(sweep.reused, plan.size() / 2);
    EXPECT_EQ(sweep.executed, plan.size() - plan.size() / 2);
    expectSameMatrix(expected, sweep.matrix);
    // The journal now covers the whole plan.
    RecordLog journal;
    journal.open(path.str(), kJournal);
    EXPECT_EQ(journal.size(), plan.size());
}

/** Regression: a DNN cell's fingerprint covers its generation params,
 *  so a journal written at one footprint divisor never answers a resume
 *  at another. */
TEST(ResilientSweep, ResumeAtAnotherScaleReExecutesDnnCells)
{
    const std::vector<LabeledConfig> configs = {
        {"on-touch", makeConfig(PolicyKind::kOnTouch, 4)}};
    workload::WorkloadParams coarse = fastParams();  // divisor 64
    coarse.footprintDivisor = 128;
    TempPath path("grit_resume_scale.jsonl");
    ASSERT_TRUE(journaledSweep(RunPlan::matrix({workload::AppId::kVgg16},
                                               configs, coarse),
                               path)
                    .complete());

    const RunPlan plan =
        RunPlan::matrix({workload::AppId::kVgg16}, configs, fastParams());
    const SweepResult sweep = journaledSweep(plan, path);
    EXPECT_TRUE(sweep.complete());
    EXPECT_EQ(sweep.reused, 0u);
    EXPECT_EQ(sweep.executed, plan.size());
    expectSameMatrix(ExperimentEngine().runResilient(plan, {}).matrix,
                     sweep.matrix);
}

// ------------------------------------------------- watchdogs + quarantine

TEST(ResilientSweep, HungCellIsQuarantinedAndSalvaged)
{
    // One deliberately livelocked cell (chaos hang) among healthy ones;
    // the event budget converts the hang into a kDeadline quarantine
    // while the rest of the sweep completes normally.
    RunPlan plan;
    SystemConfig healthy = makeConfig(PolicyKind::kOnTouch, 4);
    plan.addCell("GEMM", "on-touch", healthy, workload::AppId::kGemm,
                 fastParams());
    SystemConfig hung = healthy;
    hung.chaos = sim::ChaosSpec::parse("hang:at=1000");
    plan.addCell("GEMM", "hung", hung, workload::AppId::kGemm,
                 fastParams());

    ResilientOptions options;
    options.eventBudget = 50000;
    ExperimentEngine engine;
    const SweepResult sweep = engine.runResilient(plan, options);

    EXPECT_FALSE(sweep.complete());
    EXPECT_FALSE(sweep.cancelled);
    ASSERT_EQ(sweep.failures.size(), 1u);
    const FailureRecord &failure = sweep.failures[0];
    EXPECT_EQ(failure.row, "GEMM");
    EXPECT_EQ(failure.label, "hung");
    EXPECT_EQ(failure.error.code, sim::ErrorCode::kDeadline);
    EXPECT_TRUE(failure.salvaged);
    EXPECT_EQ(failure.attempts, 1u);

    // The healthy cell's result is untouched by its hung neighbor.
    ASSERT_TRUE(sweep.matrix.at("GEMM").count("on-touch"));
    EXPECT_FALSE(sweep.matrix.at("GEMM").at("on-touch").partial);

    // Salvage: the hung cell still exported counters-so-far.
    ASSERT_TRUE(sweep.matrix.at("GEMM").count("hung"));
    const RunResult &partial = sweep.matrix.at("GEMM").at("hung");
    EXPECT_TRUE(partial.partial);
    ASSERT_TRUE(partial.error.has_value());
    EXPECT_EQ(partial.error->code, sim::ErrorCode::kDeadline);

    // The document: the runs, then the failure manifest, then, only
    // when the engine's trace cache is passed (--sweep-stats), the
    // "sweep" section.
    std::ostringstream plain;
    std::ostringstream with_stats;
    writeSweepResult(plain, "test", "hung", fastParams(), sweep, nullptr);
    writeSweepResult(with_stats, "test", "hung", fastParams(), sweep,
                     &engine.traceCache());
    EXPECT_EQ(stats::JsonValue::parse(plain.str()).find("sweep"), nullptr);
    const stats::JsonValue doc = stats::JsonValue::parse(with_stats.str());
    std::vector<std::string> keys;
    for (const auto &member : doc.asObject())
        keys.push_back(member.first);
    EXPECT_EQ(keys, (std::vector<std::string>{"schema", "version",
                                              "generator", "title",
                                              "params", "runs",
                                              "failures", "sweep"}));
    EXPECT_EQ(doc.at("failures").at(std::size_t{0}).at("label").asString(),
              "hung");
    const stats::JsonValue &section = doc.at("sweep");
    EXPECT_EQ(section.at("executed").asUint64(), 2u);
    EXPECT_EQ(section.at("reused").asUint64(), 0u);
    EXPECT_EQ(section.at("skipped").asUint64(), 0u);
    const workload::TraceCache &cache = engine.traceCache();
    EXPECT_EQ(section.at("cache").at("hits").asUint64(), cache.hits());
    EXPECT_EQ(section.at("cache").at("misses").asUint64(), cache.misses());
    EXPECT_GT(cache.misses(), 0u);
    EXPECT_EQ(section.at("cache").at("bytes").asUint64(), cache.bytes());
}

TEST(ResilientSweep, SalvageOffDropsPartialResults)
{
    RunPlan plan;
    SystemConfig hung = makeConfig(PolicyKind::kOnTouch, 4);
    hung.chaos = sim::ChaosSpec::parse("hang:at=1000");
    plan.addCell("GEMM", "hung", hung, workload::AppId::kGemm,
                 fastParams());

    ResilientOptions options;
    options.eventBudget = 50000;
    options.salvagePartial = false;
    ExperimentEngine engine;
    const SweepResult sweep = engine.runResilient(plan, options);
    ASSERT_EQ(sweep.failures.size(), 1u);
    EXPECT_FALSE(sweep.failures[0].salvaged);
    EXPECT_TRUE(sweep.matrix.empty());
}

TEST(ResilientSweep, TransientFailuresAreRetried)
{
    // A chaos hang trips the deadline on every attempt, so the retry
    // budget is consumed in full and recorded in the manifest.
    RunPlan plan;
    SystemConfig hung = makeConfig(PolicyKind::kOnTouch, 4);
    hung.chaos = sim::ChaosSpec::parse("hang:at=1000");
    plan.addCell("GEMM", "hung", hung, workload::AppId::kGemm,
                 fastParams());

    ResilientOptions options;
    options.eventBudget = 50000;
    options.retries = 2;
    ExperimentEngine engine;
    const SweepResult sweep = engine.runResilient(plan, options);
    ASSERT_EQ(sweep.failures.size(), 1u);
    EXPECT_EQ(sweep.failures[0].attempts, 3u);
}

TEST(ResilientSweep, QuarantinedCellIsReusedAsFailureOnResume)
{
    RunPlan plan;
    SystemConfig hung = makeConfig(PolicyKind::kOnTouch, 4);
    hung.chaos = sim::ChaosSpec::parse("hang:at=1000");
    plan.addCell("GEMM", "hung", hung, workload::AppId::kGemm,
                 fastParams());

    TempPath path("grit_resume_failed.jsonl");
    ResilientOptions options;
    options.eventBudget = 50000;
    ASSERT_EQ(journaledSweep(plan, path, options).failures.size(), 1u);

    // Resume: the quarantined cell is replayed from the journal — same
    // diagnostic, same salvaged counters, no re-simulation.
    const SweepResult sweep = journaledSweep(plan, path, options);
    EXPECT_EQ(sweep.executed, 0u);
    EXPECT_EQ(sweep.reused, 1u);
    ASSERT_EQ(sweep.failures.size(), 1u);
    EXPECT_EQ(sweep.failures[0].error.code, sim::ErrorCode::kDeadline);
    EXPECT_TRUE(sweep.failures[0].salvaged);
    ASSERT_TRUE(sweep.matrix.count("GEMM"));
    EXPECT_TRUE(sweep.matrix.at("GEMM").at("hung").partial);
}

TEST(ResilientSweep, WallDeadlineTripsAsDeadlineError)
{
    // An already-elapsed wall deadline cancels between events; the
    // simulator surfaces it as a structured kDeadline, never an abort.
    SystemConfig config = makeConfig(PolicyKind::kOnTouch, 4);
    config.wallDeadlineSec = 1e-9;
    const auto gemm = std::make_shared<const workload::Workload>(
        workload::makeWorkload(workload::AppId::kGemm, fastParams()));
    Simulator sim(config, workload::streamWorkload(gemm));
    try {
        sim.run();
        FAIL() << "expected SimException";
    } catch (const sim::SimException &e) {
        EXPECT_EQ(e.code(), sim::ErrorCode::kDeadline);
    }

    Simulator salvage(config, workload::streamWorkload(gemm));
    const RunResult partial = salvage.run(/*salvage_partial=*/true);
    EXPECT_TRUE(partial.partial);
    ASSERT_TRUE(partial.error.has_value());
    EXPECT_EQ(partial.error->code, sim::ErrorCode::kDeadline);
}

// ------------------------------------------------------------ cancel flag

TEST(ResilientSweep, CancelFlagSkipsUnstartedCells)
{
    static std::atomic<int> flag{SIGINT};
    const RunPlan plan = smallPlan();
    ResilientOptions options;
    options.cancelFlag = &flag;
    ExperimentEngine engine;
    const SweepResult sweep = engine.runResilient(plan, options);
    EXPECT_TRUE(sweep.cancelled);
    EXPECT_FALSE(sweep.complete());
    EXPECT_EQ(sweep.skipped, plan.size());
    EXPECT_EQ(sweep.executed, 0u);
    EXPECT_TRUE(sweep.matrix.empty());
    // Interrupted cells are not failures: resume re-executes them.
    EXPECT_TRUE(sweep.failures.empty());
}

TEST(ResilientSweep, InterruptedCellIsNeverJournaled)
{
    static std::atomic<int> flag{0};
    flag.store(SIGTERM);
    RunPlan plan;
    plan.addCell("GEMM", "on-touch", makeConfig(PolicyKind::kOnTouch, 4),
                 workload::AppId::kGemm, fastParams());

    TempPath path("grit_cancel.jsonl");
    RecordLog journal;
    journal.open(path.str(), kJournal);
    ResilientOptions options;
    options.journal = &journal;
    options.cancelFlag = &flag;
    ExperimentEngine engine;
    const SweepResult sweep = engine.runResilient(plan, options);
    EXPECT_TRUE(sweep.cancelled);
    // Nothing landed in the journal, so a resume runs the cell fresh.
    EXPECT_EQ(journal.size(), 0u);
    flag.store(0);
}

// ------------------------------------------------- watchdogs over counting

/**
 * A BFS cell of about 312M accesses: the pass that counts its trace
 * alone takes seconds, so runCell returns within the bounds below only
 * if that pass polls the watchdogs.
 */
RunCell
longCountingCell()
{
    workload::WorkloadParams params;
    params.footprintDivisor = 128;
    params.intensity = 1000;
    RunPlan plan;
    plan.add(workload::AppId::kBfs, {"grit", makeConfig(PolicyKind::kGrit, 4)},
             params);
    return plan.cells().front();
}

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

TEST(ResilientCell, CancelFlagStopsTheCountingPass)
{
    static std::atomic<int> flag{SIGTERM};
    const RunCell cell = longCountingCell();
    ResilientOptions options;
    options.cancelFlag = &flag;
    ExperimentEngine engine;
    const auto start = std::chrono::steady_clock::now();
    EXPECT_FALSE(
        engine.runCell(cell, runFingerprint(cell), options).has_value());
    EXPECT_LT(secondsSince(start), 0.5);
}

TEST(ResilientCell, DeadlineStopsTheCountingPass)
{
    const RunCell cell = longCountingCell();
    ResilientOptions options;
    options.wallDeadlineSec = 0.05;
    ExperimentEngine engine;
    const auto start = std::chrono::steady_clock::now();
    const std::optional<JournalEntry> entry =
        engine.runCell(cell, runFingerprint(cell), options);
    EXPECT_LT(secondsSince(start), 0.5);
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->status, "failed");
    ASSERT_TRUE(entry->error.has_value());
    EXPECT_EQ(entry->error->code, sim::ErrorCode::kDeadline);
}

// ------------------------------------------------------------ trace cache

/**
 * Chunk @p index of GPU 0's GEMM trace in 100-access chunks, fetched
 * through @p cache. The trace is far longer than the chunks these tests
 * fetch, so each of them is full and they all hold the same bytes.
 */
workload::ChunkHandle
fetchChunk(workload::TraceCache &cache, std::uint64_t index)
{
    auto stream =
        cache.openStream(workload::AppId::kGemm, fastParams(), 0, 100);
    stream->seek(index);
    return stream->next();
}

TEST(TraceCacheBudget, EvictsLruBeyondByteBudget)
{
    workload::TraceCache cache;
    const auto c0 = fetchChunk(cache, 0);
    ASSERT_NE(c0, nullptr);
    const std::uint64_t chunk = workload::chunkBytes(*c0);
    EXPECT_EQ(cache.bytes(), chunk);

    // The budget fits two chunks. Touching chunk 0 makes chunk 1 the
    // least recently used, so inserting chunk 2 evicts chunk 1.
    cache.setByteBudget(2 * chunk);
    EXPECT_EQ(cache.byteBudget(), 2 * chunk);
    const auto c1 = fetchChunk(cache, 1);
    EXPECT_EQ(fetchChunk(cache, 0), c0);  // hit, now most recent
    fetchChunk(cache, 2);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.bytes(), 2 * chunk);
    EXPECT_EQ(cache.misses(), 3u);
    EXPECT_EQ(fetchChunk(cache, 0), c0);  // survived
    EXPECT_EQ(cache.misses(), 3u);
    EXPECT_FALSE(c1->accesses.empty());  // handle survives eviction

    // Re-requesting the evicted chunk regenerates it deterministically.
    const auto again = fetchChunk(cache, 1);
    EXPECT_EQ(cache.misses(), 4u);
    ASSERT_NE(again, c1);
    ASSERT_EQ(again->accesses.size(), c1->accesses.size());
    for (std::size_t i = 0; i < c1->accesses.size(); ++i) {
        EXPECT_EQ(again->accesses[i].addr, c1->accesses[i].addr);
        EXPECT_EQ(again->accesses[i].write, c1->accesses[i].write);
    }
}

TEST(TraceCacheBudget, OversizedSingleTraceStillCaches)
{
    workload::TraceCache cache;
    cache.setByteBudget(1);  // smaller than any chunk
    const auto c0 = fetchChunk(cache, 0);
    ASSERT_NE(c0, nullptr);
    // The being-inserted chunk is protected from its own insertion...
    EXPECT_EQ(cache.size(), 1u);
    // ...a hit still serves it...
    EXPECT_EQ(fetchChunk(cache, 0), c0);
    EXPECT_EQ(cache.hits(), 1u);
    // ...and the next insertion reclaims it.
    fetchChunk(cache, 1);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.evictions(), 1u);
}

TEST(TraceCacheBudget, UnboundedByDefaultAndClearResets)
{
    workload::TraceCache cache;
    EXPECT_EQ(cache.byteBudget(), 0u);
    for (std::uint64_t k = 0; k < 4; ++k)
        fetchChunk(cache, k);
    EXPECT_EQ(cache.evictions(), 0u);
    EXPECT_EQ(cache.size(), 4u);
    EXPECT_GT(cache.bytes(), 0u);
    cache.clear();
    EXPECT_EQ(cache.bytes(), 0u);
    EXPECT_EQ(cache.size(), 0u);
}

TEST(TraceCacheBudget, EngineHonorsEnvByteBudget)
{
    ExperimentEngine::Options options;
    options.traceCacheBytes = 4096;
    ExperimentEngine engine(options);
    EXPECT_EQ(engine.traceCache().byteBudget(), 4096u);
}

}  // namespace
}  // namespace grit::harness
