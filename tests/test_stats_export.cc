/** @file Tests for the observability layer: JsonWriter escaping and
 *  number formatting, TraceRecorder ring-buffer semantics and Chrome
 *  trace export, the grit-results layout, and the end-to-end guarantee
 *  that a "grit-results" document is byte-identical for any worker
 *  count. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "harness/experiment_engine.h"
#include "harness/results_io.h"
#include "simcore/trace_recorder.h"
#include "stats/interval_sampler.h"
#include "stats/json_value.h"
#include "stats/json_writer.h"
#include "stats/timeline.h"

namespace grit {
namespace {

// ------------------------------------------------------------ JsonWriter

TEST(JsonWriter, EscapesControlAndQuoteCharacters)
{
    EXPECT_EQ(stats::JsonWriter::escaped("plain"), "plain");
    EXPECT_EQ(stats::JsonWriter::escaped("a\"b"), "a\\\"b");
    EXPECT_EQ(stats::JsonWriter::escaped("a\\b"), "a\\\\b");
    EXPECT_EQ(stats::JsonWriter::escaped("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(stats::JsonWriter::escaped(std::string("a\x01z")),
              "a\\u0001z");
    EXPECT_EQ(stats::JsonWriter::escaped("\b\f\r"), "\\b\\f\\r");
}

TEST(JsonWriter, FormatsNumbersDeterministically)
{
    EXPECT_EQ(stats::JsonWriter::number(0.0), "0");
    EXPECT_EQ(stats::JsonWriter::number(0.5), "0.5");
    EXPECT_EQ(stats::JsonWriter::number(-3.25), "-3.25");
    // Shortest round-trip form, never locale-dependent.
    EXPECT_EQ(stats::JsonWriter::number(0.1), "0.1");
    // Non-finite values are not valid JSON numbers.
    EXPECT_EQ(stats::JsonWriter::number(
                  std::numeric_limits<double>::infinity()),
              "null");
    EXPECT_EQ(stats::JsonWriter::number(
                  std::numeric_limits<double>::quiet_NaN()),
              "null");
}

TEST(JsonWriter, WritesNestedStructures)
{
    std::ostringstream os;
    {
        stats::JsonWriter json(os);
        json.beginObject();
        json.key("a").value(std::uint64_t{1});
        json.key("b").beginArray();
        json.value("x");
        json.value(true);
        json.endArray();
        json.key("c").beginObject();
        json.key("d").value(2.5);
        json.endObject();
        json.endObject();
    }
    EXPECT_EQ(os.str(), R"({"a":1,"b":["x",true],"c":{"d":2.5}})");
}

/** Regression: non-finite doubles must surface as `null` inside a full
 *  document, not just through the number() helper — a NaN metric (e.g.
 *  a 0/0 rate) must never produce invalid JSON. */
TEST(JsonWriter, NonFiniteValuesEmitNullInsideDocuments)
{
    std::ostringstream os;
    {
        stats::JsonWriter json(os);
        json.beginObject();
        json.key("nan").value(std::numeric_limits<double>::quiet_NaN());
        json.key("inf").value(std::numeric_limits<double>::infinity());
        json.key("ninf").value(-std::numeric_limits<double>::infinity());
        json.key("ok").value(1.5);
        json.endObject();
    }
    EXPECT_EQ(os.str(),
              R"({"nan":null,"inf":null,"ninf":null,"ok":1.5})");
}

// --------------------------------------------------------- TraceRecorder

TEST(TraceRecorder, RetainsEverythingBelowCapacity)
{
    sim::TraceRecorder trace(8);
    trace.record("fault", "uvm", 10, 5, 0, 42);
    trace.record("migrate", "uvm", 20, 7, 1, 43, 0);
    ASSERT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace.dropped(), 0u);
    EXPECT_STREQ(trace.at(0).name, "fault");
    EXPECT_EQ(trace.at(1).ts, 20u);
    EXPECT_EQ(trace.at(1).peer, 0);
}

TEST(TraceRecorder, OverwritesOldestWhenFull)
{
    sim::TraceRecorder trace(4);
    for (std::uint64_t i = 0; i < 6; ++i)
        trace.record("e", "t", i, 0, 0, i);
    EXPECT_EQ(trace.size(), 4u);
    EXPECT_EQ(trace.recorded(), 6u);
    EXPECT_EQ(trace.dropped(), 2u);
    // Oldest retained first: events 2, 3, 4, 5.
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(trace.at(i).arg, i + 2);
    trace.clear();
    EXPECT_EQ(trace.size(), 0u);
}

TEST(TraceRecorder, WritesLoadableChromeTrace)
{
    sim::TraceRecorder trace(16);
    trace.record("fault", "uvm", 1500, 300, 2, 7);
    trace.record("evict", "uvm", 2000, 0, sim::kHostId, 9);
    std::ostringstream os;
    trace.writeChromeTrace(os);
    const std::string doc = os.str();
    EXPECT_NE(doc.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
    EXPECT_NE(doc.find("\"traceEvents\":["), std::string::npos);
    // Complete event with microsecond timestamps (1500 cycles = 1.5 us).
    EXPECT_NE(doc.find("\"ph\":\"X\",\"ts\":1.500,\"dur\":0.300"),
              std::string::npos);
    // Instant event on the driver track.
    EXPECT_NE(doc.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(doc.find("\"name\":\"uvm-driver\""), std::string::npos);
}

// ------------------------------------------------------------ ResultsIo

TEST(ResultsIo, WritesVersionedEnvelope)
{
    workload::WorkloadParams params;
    params.footprintDivisor = 256;
    params.intensity = 0.5;
    params.seed = 42;
    std::ostringstream os;
    stats::JsonWriter json(os);
    harness::beginResultsDocument(json, "test_gen", "a title", params);
    json.key("runs").beginArray().endArray();
    json.endObject();
    EXPECT_EQ(os.str(),
              R"({"schema":"grit-results","version":2,)"
              R"("generator":"test_gen","title":"a title",)"
              R"("params":{"footprint_divisor":256,"intensity":0.5,)"
              R"("seed":42},"runs":[]})");

    // A document with no runs is exactly that envelope.
    std::ostringstream matrix;
    harness::writeResultMatrix(matrix, "test_gen", "a title", params, {});
    EXPECT_EQ(matrix.str(), os.str() + "\n");
}

TEST(ResultsIo, TimelineKeyNamesMatchKinds)
{
    harness::ResultMatrix matrix;
    matrix["BFS"]["grit"].timeline.emplace(100, stats::kTimelineKinds);
    std::ostringstream os;
    harness::writeResultMatrix(os, "test_gen", "t", {}, matrix);
    const stats::JsonValue doc = stats::JsonValue::parse(os.str());
    const auto &names =
        doc.at("runs").at(0).at("timeline").at("keys").asArray();
    ASSERT_EQ(names.size(), stats::kTimelineKinds);
    EXPECT_EQ(names[0].asString(), "fault");
    EXPECT_EQ(names[static_cast<unsigned>(
                        stats::TimelineKind::kRemoteAccess)]
                  .asString(),
              "remote_access");
}

/**
 * A sweep no golden holds: one complete run with a timeline, one
 * salvaged partial run cut by its deadline, that run's failure record,
 * and --sweep-stats over an unused trace cache.
 */
harness::SweepResult
handBuiltSweep()
{
    harness::RunResult done;
    done.cycles = 1000;
    done.accesses = 400;
    done.accessesBatched = 100;
    done.localFaults = 7;
    done.protectionFaults = 2;
    done.evictions = 3;
    done.peakReplicas = 5;
    done.schemeAccesses = {1, 2, 3, 4};
    done.breakdown.add(stats::LatencyKind::kLocal, 10);
    done.breakdown.add(stats::LatencyKind::kWriteCollapse, 5);
    done.counters = {{"gpu0.faults", 7}, {"uvm.migrations", 3}};
    stats::IntervalSampler timeline(500, stats::kTimelineKinds);
    timeline.record(0, static_cast<unsigned>(stats::TimelineKind::kFault),
                    3);
    timeline.record(
        700, static_cast<unsigned>(stats::TimelineKind::kRemoteAccess), 2);
    done.timeline = timeline;

    harness::RunResult cut;
    cut.cycles = 50;
    cut.accesses = 20;
    cut.partial = true;
    cut.error = sim::SimError(sim::ErrorCode::kDeadline,
                              "wall-clock deadline passed", "ST/grit");

    harness::SweepResult sweep;
    sweep.matrix["BFS"]["on-touch"] = done;
    sweep.matrix["ST"]["grit"] = cut;
    sweep.failures.push_back(harness::FailureRecord{
        "ST", "grit", "0123456789abcdef", *cut.error, 2, true});
    sweep.executed = 2;
    sweep.reused = 1;
    return sweep;
}

/** Every section of a resilient sweep's document, byte for byte. */
TEST(ResultsIo, SweepDocumentBytesArePinned)
{
    workload::WorkloadParams params;
    params.footprintDivisor = 128;
    params.intensity = 0.2;
    const workload::TraceCache cache;
    std::ostringstream os;
    harness::writeSweepResult(os, "test_gen", "pinned", params,
                              handBuiltSweep(), &cache);
    EXPECT_EQ(
        os.str(),
        R"({"schema":"grit-results","version":2,"generator":"test_gen",)"
        R"("title":"pinned","params":{"footprint_divisor":128,"intensity":0.2,)"
        R"("seed":1},"runs":[{"row":"BFS","label":"on-touch","cycles":1000,)"
        R"("accesses":400,"accesses_batched":100,"local_faults":7,)"
        R"("protection_faults":2,"total_faults":9,"evictions":3,)"
        R"("peak_replicas":5,"oversubscription_rate":7.5,)"
        R"("scheme_accesses":{"none":1,"on_touch":2,"access_counter":3,)"
        R"("duplication":4},"latency_breakdown":{"local":10,"host":0,)"
        R"("page_migration":0,"remote_access":0,"page_duplication":0,)"
        R"("write_collapse":5,"total":15},"timeline":{"interval_cycles":500,)"
        R"("keys":["fault","migration","duplication","collapse",)"
        R"("remote_access","eviction"],"intervals":[[3,0,0,0,0,0],[0,0,0,0,2,)"
        R"(0]]},"counters":{"gpu0.faults":7,"uvm.migrations":3}},{"row":"ST",)"
        R"("label":"grit","cycles":50,"accesses":20,"accesses_batched":0,)"
        R"("local_faults":0,"protection_faults":0,"total_faults":0,)"
        R"("evictions":0,"peak_replicas":0,"oversubscription_rate":0,)"
        R"("scheme_accesses":{"none":0,"on_touch":0,"access_counter":0,)"
        R"("duplication":0},"latency_breakdown":{"local":0,"host":0,)"
        R"("page_migration":0,"remote_access":0,"page_duplication":0,)"
        R"("write_collapse":0,"total":0},"counters":{},"partial":true,)"
        R"("error":{"code":"deadline","message":"wall-clock deadline passed",)"
        R"("context":"ST/grit"}}],"failures":[{"row":"ST","label":"grit",)"
        R"("fingerprint":"0123456789abcdef","error":{"code":"deadline",)"
        R"("message":"wall-clock deadline passed","context":"ST/grit"},)"
        R"("attempts":2,"salvaged":true}],"sweep":{"executed":2,"reused":1,)"
        R"("skipped":0,"cache":{"hits":0,"misses":0,"evictions":0,"bytes":0,)"
        R"("byte_budget":0}}})"
        "\n");
}

// ----------------------------------------------- end-to-end determinism

/** Serialize @p matrix exactly as `--json` does. */
std::string
serialize(const harness::ResultMatrix &matrix,
          const workload::WorkloadParams &params)
{
    std::ostringstream os;
    harness::writeResultMatrix(os, "test", "determinism", params, matrix);
    return os.str();
}

TEST(StatsExport, DocumentIsIdenticalForAnyWorkerCount)
{
    workload::WorkloadParams params;
    params.footprintDivisor = 512;
    params.intensity = 0.1;

    const std::vector<workload::AppId> apps = {workload::AppId::kBfs,
                                               workload::AppId::kFir};
    const std::vector<harness::LabeledConfig> configs = {
        {"on-touch",
         harness::makeConfig(harness::PolicyKind::kOnTouch, 4)},
        {"grit", harness::makeConfig(harness::PolicyKind::kGrit, 4)},
    };

    harness::ExperimentEngine::Options serial;
    serial.jobs = 1;
    harness::ExperimentEngine::Options wide;
    wide.jobs = 4;

    const auto plan = harness::RunPlan::matrix(apps, configs, params);
    const auto sweep = [&plan](const harness::ExperimentEngine::Options &o) {
        return harness::ExperimentEngine(o)
            .runResilient(plan, harness::ResilientOptions{})
            .matrix;
    };
    const std::string doc1 = serialize(sweep(serial), params);
    const std::string doc4 = serialize(sweep(wide), params);

    EXPECT_FALSE(doc1.empty());
    EXPECT_EQ(doc1, doc4);
    // Spot-check the fixed schema fields made it into the document.
    for (const char *key :
         {"\"schema\":\"grit-results\"", "\"latency_breakdown\"",
          "\"scheme_accesses\"", "\"counters\"", "\"total_faults\""})
        EXPECT_NE(doc1.find(key), std::string::npos) << key;
}

TEST(StatsExport, TimelineCountsFaultsWhenSampling)
{
    workload::WorkloadParams params;
    params.footprintDivisor = 512;
    params.intensity = 0.1;
    harness::SystemConfig config =
        harness::makeConfig(harness::PolicyKind::kOnTouch, 4);
    config.timelineIntervalCycles = 100'000;

    const harness::RunResult r =
        harness::runApp(workload::AppId::kBfs, config, params);
    ASSERT_TRUE(r.timeline.has_value());
    std::uint64_t faults = 0;
    for (std::size_t i = 0; i < r.timeline->intervals(); ++i)
        faults += r.timeline->get(
            i, static_cast<unsigned>(stats::TimelineKind::kFault));
    EXPECT_EQ(faults, r.totalFaults());
}

TEST(StatsExport, TraceCapturesPageLifecycle)
{
    workload::WorkloadParams params;
    params.footprintDivisor = 512;
    params.intensity = 0.1;
    sim::TraceRecorder trace;
    harness::SystemConfig config =
        harness::makeConfig(harness::PolicyKind::kOnTouch, 4);
    config.trace = &trace;

    const harness::RunResult r =
        harness::runApp(workload::AppId::kBfs, config, params);
    EXPECT_GT(trace.size(), 0u);
    // Every fault episode the run serviced appears in the trace.
    std::uint64_t fault_events = 0;
    for (std::size_t i = 0; i < trace.size(); ++i)
        if (std::string_view(trace.at(i).name) == "fault")
            ++fault_events;
    EXPECT_EQ(fault_events, r.totalFaults());
}

}  // namespace
}  // namespace grit
