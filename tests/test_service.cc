/** @file Simulation-service suite: fair-share admission, wire-protocol
 *  round trips, deterministic retry backoff, and the daemon core —
 *  execute/cache/dedupe, overload shedding, drain semantics, deadline
 *  salvage, store compaction, and worker-count invariance. */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "harness/experiment_engine.h"
#include "harness/record_frame.h"
#include "harness/record_log.h"
#include "harness/run_journal.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/request_queue.h"
#include "service/server.h"
#include "service/socket.h"
#include "simcore/sim_error.h"
#include "temp_path.h"

namespace grit::service {
namespace {

using test::TempPath;

/** A complete "ok" journal entry, distinct per @p fingerprint. */
harness::JournalEntry
okEntry(const std::string &fingerprint, std::uint64_t cycles)
{
    harness::JournalEntry entry;
    entry.fingerprint = fingerprint;
    entry.row = "GEMM";
    entry.label = "grit";
    entry.status = "ok";
    entry.attempts = 1;
    entry.hasResult = true;
    entry.result.cycles = cycles;
    entry.result.accesses = cycles / 2;
    entry.result.accessesBatched = 3;
    return entry;
}

/** A small, fast run request (the golden-pinned workload scale). */
Request
runRequest(const std::string &client, const std::string &app,
           const std::string &policy)
{
    Request request;
    request.op = "run";
    request.run.client = client;
    request.run.app = app;
    request.run.policy = policy;
    request.run.numGpus = 2;
    request.run.params.numGpus = 2;
    request.run.params.footprintDivisor = 128;
    request.run.params.intensity = 0.2;
    return request;
}

/** Poll @p pred up to ~10 s; true as soon as it holds. */
bool
waitFor(const std::function<bool()> &pred)
{
    for (int waited = 0; waited < 10000; waited += 5) {
        if (pred())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return pred();
}

/**
 * The line a local, journaled runResilient of @p request's cell writes
 * to a fresh journal at @p name in the test temp directory.
 */
std::string
localJournalLine(const Request &request, const std::string &name)
{
    const TempPath path(name);
    const harness::RecordLogHeader header{
        harness::kJournalSchema, harness::kJournalVersion, "test_service"};
    const harness::RunCell cell = cellFromRequest(request.run);
    harness::RunPlan plan;
    plan.addCell(cell.row, cell.label, cell.config, cell.app, cell.params);
    harness::RecordLog journal;
    journal.open(path.str(), header);
    harness::ResilientOptions options;
    options.journal = &journal;
    options.wallDeadlineSec = request.run.deadlineSec;
    options.eventBudget = request.run.eventBudget;
    (void)harness::ExperimentEngine().runResilient(plan, options);
    journal.close();
    journal.open(path.str(), header);  // read back what was written
    const harness::JournalEntry *entry =
        journal.find(harness::runFingerprint(cell));
    return entry != nullptr ? harness::journalLine(*entry) : "";
}

/** Execution gate: holds every worker at the door until release(). */
struct Gate
{
    std::mutex mutex;
    std::condition_variable cv;
    bool open = false;
    std::atomic<unsigned> arrivals{0};

    void wait()
    {
        arrivals.fetch_add(1);
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [this] { return open; });
    }
    void release()
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            open = true;
        }
        cv.notify_all();
    }
};

// --------------------------------------------------------- FairShareQueue

TEST(FairShareQueue, RoundRobinAcrossClients)
{
    FairShareQueue<std::uint64_t> queue(16);
    EXPECT_EQ(queue.push("c1", 1), Admission::kAdmitted);
    EXPECT_EQ(queue.push("c1", 2), Admission::kAdmitted);
    EXPECT_EQ(queue.push("c1", 3), Admission::kAdmitted);
    EXPECT_EQ(queue.push("c2", 4), Admission::kAdmitted);
    EXPECT_EQ(queue.push("c3", 5), Admission::kAdmitted);
    queue.close();  // so pop() cannot block
    // One turn per client per round — c1's backlog cannot starve
    // c2/c3 even though it was queued first.
    EXPECT_EQ(queue.pop(), std::optional<std::uint64_t>(1));
    EXPECT_EQ(queue.pop(), std::optional<std::uint64_t>(4));
    EXPECT_EQ(queue.pop(), std::optional<std::uint64_t>(5));
    EXPECT_EQ(queue.pop(), std::optional<std::uint64_t>(2));
    EXPECT_EQ(queue.pop(), std::optional<std::uint64_t>(3));
    EXPECT_EQ(queue.pop(), std::nullopt);
}

TEST(FairShareQueue, BoundedPushSheds)
{
    FairShareQueue<std::uint64_t> queue(2);
    EXPECT_EQ(queue.push("c1", 1), Admission::kAdmitted);
    EXPECT_EQ(queue.push("c2", 2), Admission::kAdmitted);
    EXPECT_EQ(queue.push("c3", 3), Admission::kFull);
    EXPECT_EQ(queue.size(), 2u);
    queue.close();
    EXPECT_EQ(queue.pop(), std::optional<std::uint64_t>(1));
    EXPECT_EQ(queue.push("c3", 3), Admission::kClosed);
}

TEST(FairShareQueue, CloseDrainsThenReportsExhaustion)
{
    FairShareQueue<std::uint64_t> queue(4);
    queue.push("c1", 7);
    queue.close();
    EXPECT_TRUE(queue.closed());
    EXPECT_EQ(queue.push("c1", 8), Admission::kClosed);
    EXPECT_EQ(queue.pop(), std::optional<std::uint64_t>(7));
    EXPECT_EQ(queue.pop(), std::nullopt);
    EXPECT_EQ(queue.pop(), std::nullopt);
}

TEST(FairShareQueue, PopBlocksUntilPush)
{
    FairShareQueue<std::uint64_t> queue(4);
    std::optional<std::uint64_t> got;
    std::thread consumer([&] { got = queue.pop(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(queue.push("c1", 42), Admission::kAdmitted);
    consumer.join();
    EXPECT_EQ(got, std::optional<std::uint64_t>(42));
}

// --------------------------------------------------------------- protocol

TEST(ServiceProtocol, RequestLineRoundTrips)
{
    Request request = runRequest("alice", "BFS", "grit");
    request.run.deadlineSec = 2.5;
    request.run.eventBudget = 12345;
    request.run.chaos = "hang:at=1000";
    request.run.audit = true;
    const Request back = requestFromLine(requestLine(request));
    EXPECT_EQ(back.op, "run");
    EXPECT_EQ(back.run.client, "alice");
    EXPECT_EQ(back.run.app, "BFS");
    EXPECT_EQ(back.run.policy, "grit");
    EXPECT_EQ(back.run.numGpus, 2u);
    EXPECT_EQ(back.run.params, request.run.params);
    EXPECT_EQ(back.run.deadlineSec, 2.5);
    EXPECT_EQ(back.run.eventBudget, 12345u);
    EXPECT_EQ(back.run.chaos, "hang:at=1000");
    EXPECT_TRUE(back.run.audit);
    // Re-serialization is byte-stable (wire lines are comparable).
    EXPECT_EQ(requestLine(back), requestLine(request));
}

TEST(ServiceProtocol, ResponseLineRoundTripsEntryAndError)
{
    Response ok;
    ok.status = "ok";
    ok.cached = true;
    ok.persisted = true;
    ok.entry = okEntry("aaaa000011112222", 100);
    const Response okBack = responseFromLine(responseLine(ok));
    EXPECT_EQ(okBack.status, "ok");
    EXPECT_TRUE(okBack.cached);
    EXPECT_FALSE(okBack.deduped);
    EXPECT_TRUE(okBack.persisted);
    ASSERT_TRUE(okBack.entry.has_value());
    EXPECT_EQ(harness::journalLine(*okBack.entry),
              harness::journalLine(*ok.entry));

    Response refused;
    refused.status = "error";
    refused.error = sim::SimError(sim::ErrorCode::kServiceOverloaded,
                                  "queue full", "grit-service");
    const Response errBack = responseFromLine(responseLine(refused));
    EXPECT_EQ(errBack.status, "error");
    ASSERT_TRUE(errBack.error.has_value());
    EXPECT_EQ(errBack.error->code, sim::ErrorCode::kServiceOverloaded);
    EXPECT_FALSE(errBack.persisted);

    // Every response line comes from this build's responseLine, so a
    // line without the persisted key is a structured wire error.
    try {
        (void)responseFromLine(
            "{\"schema\":\"grit-service\",\"version\":1,"
            "\"status\":\"ok\",\"cached\":true,\"deduped\":false}");
        FAIL() << "accepted a response line without persisted";
    } catch (const sim::SimException &e) {
        EXPECT_EQ(e.code(), sim::ErrorCode::kBadArgument);
    }

    Response stats;
    stats.status = "ok";
    ServiceCounters counters;
    counters.requests = 9;
    counters.hits = 4;
    counters.storeEntries = 2;
    stats.service = counters;
    const Response statsBack = responseFromLine(responseLine(stats));
    ASSERT_TRUE(statsBack.service.has_value());
    EXPECT_EQ(statsBack.service->requests, 9u);
    EXPECT_EQ(statsBack.service->hits, 4u);
    EXPECT_EQ(statsBack.service->storeEntries, 2u);
}

TEST(ServiceProtocol, MalformedLinesAreStructuredErrors)
{
    std::vector<std::string> bad = {
        "",
        "not json",
        "[1,2,3]",
        "{\"schema\":\"grit-service\",\"version\":1}",  // no op
        "{\"schema\":\"nope\",\"version\":1,\"op\":\"ping\"}",
        "{\"schema\":\"grit-service\",\"version\":99,\"op\":\"ping\"}",
        "{\"schema\":\"grit-service\",\"version\":1,\"op\":\"dance\"}",
    };
    // A run line whose divisor does not fit in 32 bits is refused, not
    // truncated to 0.
    std::string wide = requestLine(runRequest("c", "GEMM", "grit"));
    const std::string divisor = "\"footprint_divisor\":128";
    ASSERT_NE(wide.find(divisor), std::string::npos) << wide;
    wide.replace(wide.find(divisor), divisor.size(),
                 "\"footprint_divisor\":4294967296");
    bad.push_back(wide);
    for (const std::string &line : bad) {
        try {
            (void)requestFromLine(line);
            FAIL() << "accepted: " << line;
        } catch (const sim::SimException &e) {
            EXPECT_EQ(e.code(), sim::ErrorCode::kBadArgument) << line;
        }
    }
    EXPECT_THROW((void)responseFromLine("not json"), sim::SimException);
}

TEST(ServiceProtocol, CellFromRequestValidatesAndFingerprints)
{
    Request good = runRequest("c", "GEMM", "grit");
    const harness::RunCell cell = cellFromRequest(good.run);
    EXPECT_EQ(cell.row, "GEMM");
    EXPECT_EQ(cell.label, "grit");
    const std::string fingerprint = harness::runFingerprint(cell);
    EXPECT_EQ(fingerprint.size(), 16u);

    // Resilience knobs are not part of the content address: a cached
    // complete result satisfies any deadline.
    Request tight = good;
    tight.run.deadlineSec = 0.001;
    tight.run.eventBudget = 1;
    EXPECT_EQ(harness::runFingerprint(cellFromRequest(tight.run)),
              fingerprint);

    // Chaos IS fingerprinted — a fault-injected run is a different cell.
    Request chaotic = good;
    chaotic.run.chaos = "hang:at=1000";
    EXPECT_NE(harness::runFingerprint(cellFromRequest(chaotic.run)),
              fingerprint);

    Request badApp = runRequest("c", "NOPE", "grit");
    EXPECT_THROW((void)cellFromRequest(badApp.run), sim::SimException);
    Request badPolicy = runRequest("c", "GEMM", "not-a-policy");
    EXPECT_THROW((void)cellFromRequest(badPolicy.run), sim::SimException);
    Request badGpus = runRequest("c", "GEMM", "grit");
    badGpus.run.numGpus = 0;
    EXPECT_THROW((void)cellFromRequest(badGpus.run), sim::SimException);
    Request badDivisor = runRequest("c", "GEMM", "grit");
    badDivisor.run.params.footprintDivisor = 0;
    EXPECT_THROW((void)cellFromRequest(badDivisor.run), sim::SimException);
    Request negative = runRequest("c", "GEMM", "grit");
    negative.run.params.intensity = -1.0;
    EXPECT_THROW((void)cellFromRequest(negative.run), sim::SimException);
    Request tooManyGpus = runRequest("c", "GEMM", "grit");
    tooManyGpus.run.numGpus = 65;
    EXPECT_THROW((void)cellFromRequest(tooManyGpus.run), sim::SimException);
}

// ---------------------------------------------------------------- backoff

TEST(Backoff, DeterministicDoublingWithCap)
{
    // Same (key, attempt) → same delay, always within
    // [nominal/2, nominal] where nominal = base * 2^(attempt-1), cap.
    for (unsigned attempt = 1; attempt <= 12; ++attempt) {
        const std::uint64_t a = backoffDelayMs("k1", attempt, 50, 2000);
        const std::uint64_t b = backoffDelayMs("k1", attempt, 50, 2000);
        EXPECT_EQ(a, b);
        std::uint64_t nominal = 50;
        for (unsigned i = 1; i < attempt && nominal < 2000; ++i)
            nominal *= 2;
        if (nominal > 2000)
            nominal = 2000;
        EXPECT_GE(a, nominal / 2) << "attempt " << attempt;
        EXPECT_LE(a, nominal) << "attempt " << attempt;
    }
    // Late attempts saturate at the cap's jitter band.
    EXPECT_LE(backoffDelayMs("k1", 40, 50, 2000), 2000u);
    EXPECT_GE(backoffDelayMs("k1", 40, 50, 2000), 1000u);
}

// ------------------------------------------------------------- the daemon

TEST(ServiceServer, ExecutesThenServesFromStore)
{
    TempPath store("server_store.jsonl");
    Server::Options options;
    options.storePath = store.str();
    options.workers = 2;
    Server server(std::move(options));
    server.start();

    const Request request = runRequest("alice", "BFS", "on-touch");
    const Response first = server.handle(request);
    ASSERT_EQ(first.status, "ok");
    EXPECT_FALSE(first.cached);
    EXPECT_FALSE(first.deduped);
    EXPECT_TRUE(first.persisted);  // appended + fsync'd before the ack
    ASSERT_TRUE(first.entry.has_value());
    EXPECT_EQ(first.entry->status, "ok");
    EXPECT_TRUE(first.entry->hasResult);
    EXPECT_GT(first.entry->result.cycles, 0u);
    // The served entry is the one a local journaled sweep writes.
    EXPECT_EQ(harness::journalLine(*first.entry),
              localJournalLine(request, "server_local_journal.jsonl"));

    const Response second = server.handle(request);
    ASSERT_EQ(second.status, "ok");
    EXPECT_TRUE(second.cached);
    EXPECT_TRUE(second.persisted);
    ASSERT_TRUE(second.entry.has_value());
    EXPECT_EQ(harness::journalLine(*second.entry),
              harness::journalLine(*first.entry));

    const ServiceCounters counters = server.counters();
    EXPECT_EQ(counters.requests, 2u);
    EXPECT_EQ(counters.hits, 1u);
    EXPECT_EQ(counters.misses, 1u);
    EXPECT_EQ(counters.executed, 1u);
    EXPECT_EQ(counters.failures, 0u);
    EXPECT_EQ(counters.storeEntries, 1u);
    server.stop();

    // A restarted server — as after a kill -9 — reloads the fsync'd
    // store and serves the same bytes without re-executing.
    Server::Options reopened;
    reopened.storePath = store.str();
    Server restarted(std::move(reopened));
    restarted.start();
    EXPECT_EQ(restarted.counters().storeEntries, 1u);
    const Response warm = restarted.handle(request);
    ASSERT_EQ(warm.status, "ok");
    EXPECT_TRUE(warm.cached);
    ASSERT_TRUE(warm.entry.has_value());
    EXPECT_EQ(harness::journalLine(*warm.entry),
              harness::journalLine(*first.entry));
    EXPECT_EQ(restarted.counters().executed, 0u);
    restarted.stop();
}

TEST(ServiceServer, DedupesInflightIdenticalCells)
{
    Gate gate;
    Server::Options options;
    options.workers = 2;
    options.executionGate = [&gate](const std::string &) { gate.wait(); };
    Server server(std::move(options));
    server.start();

    const Request request = runRequest("alice", "GEMM", "on-touch");
    Response first, second;
    std::thread a([&] { first = server.handle(request); });
    ASSERT_TRUE(waitFor([&] { return gate.arrivals.load() == 1; }));
    std::thread b([&] { second = server.handle(request); });
    // The second request must attach to the held execution, not queue
    // a second one.
    ASSERT_TRUE(
        waitFor([&] { return server.counters().deduped == 1; }));
    gate.release();
    a.join();
    b.join();

    EXPECT_EQ(first.status, "ok");
    EXPECT_EQ(second.status, "ok");
    EXPECT_TRUE(first.deduped != second.deduped);  // exactly one attached
    // No --store on this server: both clients must see that their
    // result is not durable anywhere.
    EXPECT_FALSE(first.persisted);
    EXPECT_FALSE(second.persisted);
    ASSERT_TRUE(first.entry.has_value());
    ASSERT_TRUE(second.entry.has_value());
    EXPECT_EQ(harness::journalLine(*first.entry),
              harness::journalLine(*second.entry));

    const ServiceCounters counters = server.counters();
    EXPECT_EQ(counters.requests, 2u);
    EXPECT_EQ(counters.misses, 1u);
    EXPECT_EQ(counters.deduped, 1u);
    EXPECT_EQ(counters.executed, 1u);  // the cell ran exactly once
    server.stop();
}

TEST(ServiceServer, MismatchedBudgetsDoNotShareAnExecution)
{
    Gate gate;
    Server::Options options;
    options.workers = 2;
    options.executionGate = [&gate](const std::string &) { gate.wait(); };
    Server server(std::move(options));
    server.start();

    // Same cell, different resilience constraints. The second request
    // must NOT attach to the first execution: the budget it asked for
    // would not be the one enforced, so an attached waiter could be
    // handed an outcome its own constraints would never produce.
    Request unbounded = runRequest("alice", "GEMM", "on-touch");
    Request budgeted = unbounded;
    budgeted.run.eventBudget = 50000000;  // generous: still completes

    Response first, second;
    std::thread a([&] { first = server.handle(unbounded); });
    ASSERT_TRUE(waitFor([&] { return gate.arrivals.load() == 1; }));
    std::thread b([&] { second = server.handle(budgeted); });
    // A second arrival at the gate proves a second execution started.
    ASSERT_TRUE(waitFor([&] { return gate.arrivals.load() == 2; }));
    gate.release();
    a.join();
    b.join();

    EXPECT_EQ(first.status, "ok");
    EXPECT_EQ(second.status, "ok");
    EXPECT_FALSE(first.deduped);
    EXPECT_FALSE(second.deduped);
    // The deterministic engine converges: both runs complete, so both
    // return the same bytes even though they executed separately.
    ASSERT_TRUE(first.entry.has_value());
    ASSERT_TRUE(second.entry.has_value());
    EXPECT_EQ(harness::journalLine(*first.entry),
              harness::journalLine(*second.entry));

    const ServiceCounters counters = server.counters();
    EXPECT_EQ(counters.requests, 2u);
    EXPECT_EQ(counters.misses, 2u);
    EXPECT_EQ(counters.deduped, 0u);
    EXPECT_EQ(counters.executed, 2u);
    server.stop();

    // A deadline under a microsecond is still a deadline. Printed to six
    // decimals it read as 0 (none), so this request attached to the
    // unbounded run and got its `ok`; alone it fails its deadline.
    Gate tight_gate;
    Server::Options tight_options;
    tight_options.workers = 2;
    tight_options.executionGate = [&tight_gate](const std::string &) {
        tight_gate.wait();
    };
    Server tight_server(std::move(tight_options));
    tight_server.start();
    Request tight = unbounded;
    tight.run.deadlineSec = 1e-7;
    Response open, bounded;
    std::thread c([&] { open = tight_server.handle(unbounded); });
    ASSERT_TRUE(waitFor([&] { return tight_gate.arrivals.load() == 1; }));
    std::thread d([&] { bounded = tight_server.handle(tight); });
    // Released either way, so an attached request cannot hang the test.
    const bool executed_apart =
        waitFor([&] { return tight_gate.arrivals.load() == 2; });
    tight_gate.release();
    c.join();
    d.join();

    EXPECT_TRUE(executed_apart);
    EXPECT_EQ(open.status, "ok");
    EXPECT_NE(bounded.status, "ok");
    EXPECT_FALSE(bounded.deduped);
    const ServiceCounters tight_counters = tight_server.counters();
    EXPECT_EQ(tight_counters.deduped, 0u);
    EXPECT_EQ(tight_counters.executed, 2u);
    tight_server.stop();
}

TEST(ServiceServer, ShedsWithStructuredErrorWhenQueueFull)
{
    Gate gate;
    Server::Options options;
    options.workers = 1;
    options.queueCapacity = 1;
    options.executionGate = [&gate](const std::string &) { gate.wait(); };
    Server server(std::move(options));
    server.start();

    // First cell occupies the only worker (held at the gate); second
    // fills the queue; the third must be shed, not hung.
    Response first, second;
    std::thread a(
        [&] { first = server.handle(runRequest("a", "BFS", "on-touch")); });
    ASSERT_TRUE(waitFor([&] { return gate.arrivals.load() == 1; }));
    std::thread b(
        [&] { second = server.handle(runRequest("b", "BFS", "grit")); });
    ASSERT_TRUE(waitFor([&] { return server.counters().misses == 2; }));

    const Response shed = server.handle(runRequest("c", "GEMM", "grit"));
    EXPECT_EQ(shed.status, "error");
    ASSERT_TRUE(shed.error.has_value());
    EXPECT_EQ(shed.error->code, sim::ErrorCode::kServiceOverloaded);
    EXPECT_EQ(server.counters().rejectedOverload, 1u);

    gate.release();
    a.join();
    b.join();
    EXPECT_EQ(first.status, "ok");
    EXPECT_EQ(second.status, "ok");
    server.stop();
}

TEST(ServiceServer, DrainingRefusesMissesButServesStoreHits)
{
    TempPath store("server_drain.jsonl");
    Server::Options options;
    options.storePath = store.str();
    Server server(std::move(options));
    server.start();

    const Request cached = runRequest("alice", "BFS", "on-touch");
    const Response executed = server.handle(cached);
    ASSERT_EQ(executed.status, "ok");

    server.beginDrain();
    EXPECT_TRUE(server.draining());

    // A stored result costs no execution, so drain still serves it.
    const Response hit = server.handle(cached);
    EXPECT_EQ(hit.status, "ok");
    EXPECT_TRUE(hit.cached);

    const Response refused =
        server.handle(runRequest("alice", "GEMM", "grit"));
    EXPECT_EQ(refused.status, "error");
    ASSERT_TRUE(refused.error.has_value());
    EXPECT_EQ(refused.error->code, sim::ErrorCode::kServiceDraining);
    EXPECT_EQ(server.counters().rejectedDraining, 1u);
    server.stop();
}

TEST(ServiceServer, DeadlineFailureSalvagesPartialAndIsNotCached)
{
    TempPath store("server_deadline.jsonl");
    Server::Options options;
    options.storePath = store.str();
    Server server(std::move(options));
    server.start();

    // A livelocked cell under an event budget: the watchdog quarantines
    // it as kDeadline with salvaged partial counters (grit-results v2).
    // The budget must undercut the engine's own safety valve
    // (16 * (accesses + 1024)) so it is the binding limit.
    Request hung = runRequest("alice", "GEMM", "on-touch");
    hung.run.chaos = "hang:at=1000";
    hung.run.eventBudget = 10000;
    const Response response = server.handle(hung);
    EXPECT_EQ(response.status, "failed");
    ASSERT_TRUE(response.entry.has_value());
    EXPECT_EQ(response.entry->status, "failed");
    ASSERT_TRUE(response.entry->error.has_value());
    EXPECT_EQ(response.entry->error->code, sim::ErrorCode::kDeadline);
    EXPECT_TRUE(response.entry->hasResult);
    EXPECT_TRUE(response.entry->result.partial);
    // The failed entry and its salvaged partial are the ones a local
    // journaled sweep under the same budget writes.
    EXPECT_EQ(harness::journalLine(*response.entry),
              localJournalLine(hung, "server_deadline_journal.jsonl"));

    // Failures must never poison the cache: re-requesting re-executes.
    const ServiceCounters counters = server.counters();
    EXPECT_EQ(counters.failures, 1u);
    EXPECT_EQ(counters.storeEntries, 0u);
    const Response again = server.handle(hung);
    EXPECT_EQ(again.status, "failed");
    EXPECT_FALSE(again.cached);
    EXPECT_EQ(server.counters().executed, 2u);
    server.stop();
}

TEST(ServiceServer, FailureWithoutPartialIsNotStored)
{
    // The other half of "only complete ok results are stored": a failed
    // cell with nothing to salvage. The execution gate throws before
    // the simulation starts, so no partial counters exist.
    TempPath store("server_failed_no_partial.jsonl");
    Server::Options options;
    options.storePath = store.str();
    options.executionGate = [](const std::string &) {
        throw std::runtime_error("execution refused");
    };
    Server server(std::move(options));
    server.start();

    const Response response =
        server.handle(runRequest("alice", "GEMM", "on-touch"));
    EXPECT_EQ(response.status, "failed");
    ASSERT_TRUE(response.entry.has_value());
    ASSERT_TRUE(response.entry->error.has_value());
    EXPECT_EQ(response.entry->error->message, "execution refused");
    EXPECT_FALSE(response.entry->hasResult);
    EXPECT_FALSE(response.persisted);
    EXPECT_EQ(server.counters().storeEntries, 0u);
    server.stop();
}

TEST(ServiceServer, ResultsInvariantUnderWorkerCount)
{
    const std::vector<std::pair<std::string, std::string>> cells = {
        {"BFS", "on-touch"},
        {"BFS", "grit"},
        {"GEMM", "on-touch"},
        {"GEMM", "grit"},
    };
    // Execute the same four cells on a 1-worker and a 4-worker server;
    // every entry must serialize byte-identically.
    std::map<std::string, std::string> lines1, lines4;
    for (const unsigned workers : {1u, 4u}) {
        Server::Options options;
        options.workers = workers;
        Server server(std::move(options));
        server.start();
        std::vector<Response> responses(cells.size());
        std::vector<std::thread> threads;
        for (std::size_t i = 0; i < cells.size(); ++i)
            threads.emplace_back([&, i] {
                responses[i] = server.handle(runRequest(
                    std::string("c") + std::to_string(i), cells[i].first,
                    cells[i].second));
            });
        for (std::thread &t : threads)
            t.join();
        auto &lines = workers == 1 ? lines1 : lines4;
        for (const Response &response : responses) {
            ASSERT_EQ(response.status, "ok");
            ASSERT_TRUE(response.entry.has_value());
            lines[response.entry->fingerprint] =
                harness::journalLine(*response.entry);
        }
        server.stop();
    }
    EXPECT_EQ(lines1.size(), cells.size());
    EXPECT_EQ(lines1, lines4);
}

TEST(ServiceServer, SocketRoundTripWithClient)
{
    TempPath socket("svc_test.sock");
    TempPath store("svc_test_store.jsonl");
    Server::Options options;
    options.socketPath = socket.str();
    options.storePath = store.str();
    options.workers = 2;
    Server server(std::move(options));
    server.start();

    Client::Options clientOptions;
    clientOptions.socketPath = socket.str();
    Client client(clientOptions);

    Request ping;
    ping.op = "ping";
    EXPECT_EQ(client.submit(ping).status, "ok");

    const Response run =
        client.submit(runRequest("alice", "BFS", "on-touch"));
    ASSERT_EQ(run.status, "ok");
    ASSERT_TRUE(run.entry.has_value());
    EXPECT_TRUE(run.entry->hasResult);

    Request stats;
    stats.op = "stats";
    const Response counters = client.submit(stats);
    ASSERT_TRUE(counters.service.has_value());
    EXPECT_EQ(counters.service->requests, 1u);
    EXPECT_EQ(counters.service->executed, 1u);
    EXPECT_EQ(counters.service->storeEntries, 1u);
    server.stop();

    // With the daemon gone, the client fails structurally, fast.
    Client::Options deadOptions;
    deadOptions.socketPath = socket.str();
    deadOptions.retries = 1;
    deadOptions.backoffBaseMs = 1;
    Client dead(deadOptions);
    try {
        (void)dead.submit(ping);
        FAIL() << "submit to a stopped daemon succeeded";
    } catch (const sim::SimException &e) {
        EXPECT_EQ(e.code(), sim::ErrorCode::kInternal);
    }
}

// -------------------------------------------------------- new wire ops

TEST(ServiceProtocol, PingAndCompactOpsRoundTrip)
{
    for (const std::string op : {"ping", "stats", "compact"}) {
        Request request;
        request.op = op;
        const Request parsed = requestFromLine(requestLine(request));
        EXPECT_EQ(parsed.op, op);
    }

    Response pong;
    pong.status = "ok";
    pong.ping = PingInfo{"grit_serve/test", true};
    const Response parsed = responseFromLine(responseLine(pong));
    EXPECT_EQ(parsed.status, "ok");
    ASSERT_TRUE(parsed.ping.has_value());
    EXPECT_EQ(parsed.ping->version, "grit_serve/test");
    EXPECT_TRUE(parsed.ping->draining);
}

TEST(ServiceProtocol, ScrubCountersRoundTripOnTheWire)
{
    Response stats;
    stats.status = "ok";
    ServiceCounters c;
    c.requests = 7;
    c.storeEntries = 3;
    c.storeScanned = 5;
    c.storeValid = 3;
    c.storeQuarantined = 2;
    c.storeTruncated = 1;
    stats.service = c;
    const Response parsed = responseFromLine(responseLine(stats));
    ASSERT_TRUE(parsed.service.has_value());
    EXPECT_EQ(parsed.service->storeScanned, 5u);
    EXPECT_EQ(parsed.service->storeValid, 3u);
    EXPECT_EQ(parsed.service->storeQuarantined, 2u);
    EXPECT_EQ(parsed.service->storeTruncated, 1u);
}

TEST(ServiceServer, PingReportsVersionAndDrainState)
{
    Server::Options options;
    Server server(std::move(options));
    server.start();

    Request ping;
    ping.op = "ping";
    Response response = server.handle(ping);
    ASSERT_EQ(response.status, "ok");
    ASSERT_TRUE(response.ping.has_value());
    EXPECT_EQ(response.ping->version, Server::kVersion);
    EXPECT_FALSE(response.ping->draining);

    server.beginDrain();
    response = server.handle(ping);
    ASSERT_TRUE(response.ping.has_value());
    EXPECT_TRUE(response.ping->draining);
    server.stop();
}

TEST(ServiceServer, CompactVerbRewritesTheStore)
{
    TempPath store("svc_compact_store.jsonl");
    {
        // Seed the store with one valid and one corrupt record.
        std::ofstream out(store.str(), std::ios::binary);
        out << "{\"schema\":\"grit-result-store\",\"version\":1}\n"
            << harness::frameRecord(
                   harness::journalLine(okEntry("aaaa000011112222", 7)))
            << "\nGF1 broken beyond recognition!!\n";
    }
    Server::Options options;
    options.storePath = store.str();
    Server server(std::move(options));
    server.start();

    Request compact;
    compact.op = "compact";
    const Response response = server.handle(compact);
    ASSERT_EQ(response.status, "ok");
    ASSERT_TRUE(response.service.has_value());
    EXPECT_EQ(response.service->storeEntries, 1u);
    EXPECT_EQ(response.service->storeQuarantined, 1u);
    server.stop();

    // On disk: header + exactly the one valid record, scrubbing clean.
    harness::RecordLog reopened;
    reopened.open(store.str(),
                  {Server::kStoreSchema, Server::kStoreVersion, {}});
    EXPECT_EQ(reopened.size(), 1u);
    EXPECT_EQ(reopened.scrubStats().scanned, 1u);
    EXPECT_EQ(reopened.scrubStats().quarantined, 0u);
}

TEST(ServiceServer, CompactWithoutStoreIsStructuredError)
{
    Server::Options options;
    Server server(std::move(options));
    server.start();
    Request compact;
    compact.op = "compact";
    const Response response = server.handle(compact);
    ASSERT_EQ(response.status, "error");
    ASSERT_TRUE(response.error.has_value());
    EXPECT_EQ(response.error->code, sim::ErrorCode::kBadArgument);
    server.stop();
}

TEST(ServiceServer, RefusesMoreWorkersThanItsBound)
{
    Server::Options options;
    options.workers = 1025;  // one past the bound
    Server server(std::move(options));
    try {
        server.start();
        ADD_FAILURE() << "a 1025-worker server started";
    } catch (const sim::SimException &e) {
        EXPECT_EQ(e.error().code, sim::ErrorCode::kBadArgument);
    }
}

TEST(ServiceServer, OversizedLineGetsStructuredErrorAndConnectionLives)
{
    TempPath socket("svc_maxline.sock");
    Server::Options options;
    options.socketPath = socket.str();
    options.maxLineBytes = 256;
    Server server(std::move(options));
    server.start();

    const int fd = connectUnix(socket.str());
    ASSERT_GE(fd, 0);

    // An over-limit line (even with no newline yet at the limit) is
    // answered with bad-argument, never buffered unboundedly.
    constexpr std::size_t kNoCeiling = std::numeric_limits<std::size_t>::max();
    LineReader reader(fd);
    ASSERT_TRUE(writeLine(fd, std::string(4096, 'x')));
    std::string line;
    ASSERT_EQ(reader.next(line, kNoCeiling), LineReader::Status::kLine);
    const Response refused = responseFromLine(line);
    ASSERT_EQ(refused.status, "error");
    ASSERT_TRUE(refused.error.has_value());
    EXPECT_EQ(refused.error->code, sim::ErrorCode::kBadArgument);

    // The same connection still serves the next (well-formed) request.
    Request ping;
    ping.op = "ping";
    ASSERT_TRUE(writeLine(fd, requestLine(ping)));
    ASSERT_EQ(reader.next(line, kNoCeiling), LineReader::Status::kLine);
    EXPECT_EQ(responseFromLine(line).status, "ok");

    ::close(fd);
    server.stop();

    const ServiceCounters counters = server.counters();
    EXPECT_EQ(counters.badRequests, 1u);
}

TEST(LineReader, BoundsLinesAndResyncsAfterOverflow)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const std::string stream = "short\n" + std::string(64, 'y') +
                               "\nnext\nlast";
    ASSERT_TRUE(writeAll(fds[0], stream));
    ::shutdown(fds[0], SHUT_WR);

    LineReader reader(fds[1]);
    std::string line;
    EXPECT_EQ(reader.next(line, 16), LineReader::Status::kLine);
    EXPECT_EQ(line, "short");
    // The 64-byte line overflows the 16-byte ceiling, is discarded to
    // its newline, and the reader resynchronizes on the next line.
    EXPECT_EQ(reader.next(line, 16), LineReader::Status::kTooLong);
    EXPECT_EQ(reader.next(line, 16), LineReader::Status::kLine);
    EXPECT_EQ(line, "next");
    // "last" has no newline: EOF, not a line.
    EXPECT_EQ(reader.next(line, 16), LineReader::Status::kEof);

    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(LineReader, PipelinedRequestsInOneChunk)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ASSERT_TRUE(writeAll(fds[0], "a\nb\nc\n"));
    ::shutdown(fds[0], SHUT_WR);

    LineReader reader(fds[1]);
    std::string line;
    std::vector<std::string> lines;
    while (reader.next(line, 1024) == LineReader::Status::kLine)
        lines.push_back(line);
    EXPECT_EQ(lines, (std::vector<std::string>{"a", "b", "c"}));

    ::close(fds[0]);
    ::close(fds[1]);
}

}  // namespace
}  // namespace grit::service
