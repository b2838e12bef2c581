/** @file Tests for the observability layer: JsonWriter escaping and
 *  number formatting, TraceRecorder ring-buffer semantics and Chrome
 *  trace export, ResultSink schema layout, and the end-to-end guarantee
 *  that a "grit-results" document is byte-identical for any worker
 *  count. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "harness/experiment_engine.h"
#include "harness/results_io.h"
#include "simcore/trace_recorder.h"
#include "stats/json_writer.h"
#include "stats/result_sink.h"
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

TEST(ResultSink, NonFiniteScalarsEmitNull)
{
    std::ostringstream os;
    stats::ResultSink sink(os);
    sink.begin("gen", "t");
    sink.beginRuns();
    sink.beginRun("APP", "policy");
    sink.scalar("rate", std::numeric_limits<double>::quiet_NaN());
    sink.endRun();
    sink.endRuns();
    sink.end();
    EXPECT_NE(os.str().find(R"("rate":null)"), std::string::npos);
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

// ------------------------------------------------------------ ResultSink

TEST(ResultSink, WritesVersionedEnvelope)
{
    std::ostringstream os;
    stats::ResultSink sink(os);
    sink.begin("test_gen", "a title");
    sink.writeParams(256, 0.5, 42);
    sink.beginRuns();
    sink.beginRun("BFS", "grit");
    sink.scalar("cycles", std::uint64_t{100});
    sink.endRun();
    sink.endRuns();
    sink.end();
    EXPECT_EQ(os.str(),
              R"({"schema":"grit-results","version":2,)"
              R"("generator":"test_gen","title":"a title",)"
              R"("params":{"footprint_divisor":256,"intensity":0.5,)"
              R"("seed":42},"runs":[{"row":"BFS","label":"grit",)"
              R"("cycles":100}]})");
}

TEST(ResultSink, TimelineKeyNamesMatchKinds)
{
    const auto names = stats::timelineKeyNames();
    ASSERT_EQ(names.size(), stats::kTimelineKinds);
    EXPECT_STREQ(names[0], "fault");
    EXPECT_STREQ(names[static_cast<unsigned>(
                     stats::TimelineKind::kRemoteAccess)],
                 "remote_access");
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
