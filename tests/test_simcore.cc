/** @file Unit tests for the simulation core: event queue, RNG, resources. */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "simcore/event_queue.h"
#include "simcore/first_min.h"
#include "simcore/resource.h"
#include "simcore/rng.h"

namespace grit::sim {
namespace {

// ---------------------------------------------------------------- EventQueue

TEST(EventQueue, StartsEmptyAtTimeZero)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.now(), 0u);
    EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, TiesBreakByInsertionOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        q.schedule(42, [&order, i] { order.push_back(i); });
    q.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, SchedulingInThePastThrowsStructuredError)
{
    EventQueue q;
    bool threw = false;
    q.schedule(100, [&] {
        try {
            q.schedule(5, [] {}, "stale");  // in the past
        } catch (const SimException &e) {
            threw = true;
            EXPECT_EQ(e.code(), ErrorCode::kScheduleInPast);
            EXPECT_NE(e.error().message.find("stale"),
                      std::string::npos);
        }
    });
    q.run();
    EXPECT_TRUE(threw);
}

/** Self-rescheduling callable: trivially copyable, as EventFn requires. */
struct Chain
{
    EventQueue *q;
    int *fired;
    int limit;
    Cycle step;
    void operator()() const
    {
        if (++*fired < limit)
            q->scheduleAfter(step, *this, "chain");
    }
};

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue q;
    int fired = 0;
    q.schedule(0, Chain{&q, &fired, 5, 10});
    q.run();
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(q.now(), 40u);
}

TEST(EventQueue, RunHonorsLimit)
{
    EventQueue q;
    for (int i = 0; i < 10; ++i)
        q.schedule(i, [] {});
    EXPECT_EQ(q.run(4), 4u);
    EXPECT_EQ(q.pending(), 6u);
}

TEST(EventQueue, RunReportsLimitTrip)
{
    EventQueue q;
    for (int i = 0; i < 10; ++i)
        q.schedule(i, [] {});
    q.run(4);
    EXPECT_TRUE(q.limitHit());  // stopped with work pending
    q.run();
    EXPECT_FALSE(q.limitHit());  // drained cleanly
}

TEST(EventQueue, StepExecutesOneEvent)
{
    EventQueue q;
    int count = 0;
    q.schedule(1, [&] { ++count; });
    q.schedule(2, [&] { ++count; });
    EXPECT_TRUE(q.step());
    EXPECT_EQ(count, 1);
    EXPECT_TRUE(q.step());
    EXPECT_FALSE(q.step());
}

TEST(EventQueue, LimitTripRecordsDiagnosticNamingOldestTag)
{
    EventQueue q;
    for (int i = 0; i < 4; ++i)
        q.schedule(static_cast<Cycle>(i), [] {}, "early");
    q.schedule(90, [] {}, "lane-step");
    q.schedule(99, [] {}, "fault-replay");
    q.run(5);  // stops with "fault-replay" still pending
    ASSERT_TRUE(q.limitHit());
    ASSERT_TRUE(q.diagnostic().has_value());
    EXPECT_EQ(q.diagnostic()->code, ErrorCode::kEventLimit);
    EXPECT_NE(q.diagnostic()->message.find("fault-replay"),
              std::string::npos);
    EXPECT_NE(q.diagnostic()->message.find("limit (5)"),
              std::string::npos);
}

TEST(EventQueue, CleanDrainLeavesNoDiagnostic)
{
    EventQueue q;
    q.schedule(1, [] {}, "only");
    q.run();
    EXPECT_FALSE(q.limitHit());
    EXPECT_FALSE(q.stalled());
    EXPECT_FALSE(q.diagnostic().has_value());
}

TEST(EventQueue, CancelCheckStopsCooperativelyBetweenEvents)
{
    EventQueue q;
    int executed = 0;
    struct Forever
    {
        EventQueue *q;
        int *executed;
        void operator()() const
        {
            ++*executed;
            q->schedule(q->now() + 1, *this, "chain");
        }
    };
    q.schedule(0, Forever{&q, &executed}, "chain");
    // Poll every event; trip after the third execution. No event is
    // interrupted mid-flight, so executed stays exactly at the trip.
    q.setCancelCheck(
        [&]() -> std::optional<SimError> {
            if (executed >= 3)
                return SimError(ErrorCode::kDeadline, "deadline reached");
            return std::nullopt;
        },
        /*interval_events=*/1);
    q.run();
    EXPECT_TRUE(q.cancelled());
    EXPECT_FALSE(q.limitHit());
    EXPECT_EQ(executed, 3);
    ASSERT_TRUE(q.diagnostic().has_value());
    EXPECT_EQ(q.diagnostic()->code, ErrorCode::kDeadline);
}

TEST(EventQueue, CancelCheckPolledBeforeFirstEvent)
{
    EventQueue q;
    bool ran = false;
    q.schedule(1, [&] { ran = true; }, "never");
    q.setCancelCheck([]() -> std::optional<SimError> {
        return SimError(ErrorCode::kInterrupted, "signal 2");
    });
    q.run();
    EXPECT_TRUE(q.cancelled());
    EXPECT_FALSE(ran);
}

TEST(EventQueue, EmptyCancelCheckIsInert)
{
    EventQueue q;
    q.setCancelCheck({});
    q.schedule(1, [] {}, "only");
    q.run();
    EXPECT_FALSE(q.cancelled());
    EXPECT_FALSE(q.diagnostic().has_value());
}

/** Reschedules itself at a fixed cycle forever (time never advances). */
struct Storm
{
    EventQueue *q;
    Cycle at;
    void operator()() const { q->schedule(at, *this, "storm"); }
};

TEST(EventQueue, WatchdogTripsOnSameCycleStorm)
{
    EventQueue q;
    q.setWatchdog(100);
    q.schedule(7, Storm{&q, 7}, "storm");
    q.run();
    ASSERT_TRUE(q.stalled());
    EXPECT_FALSE(q.limitHit());
    ASSERT_TRUE(q.diagnostic().has_value());
    EXPECT_EQ(q.diagnostic()->code, ErrorCode::kNoProgress);
    EXPECT_NE(q.diagnostic()->message.find("storm"), std::string::npos);
    EXPECT_NE(q.diagnostic()->message.find("cycle 7"), std::string::npos);
}

TEST(EventQueue, WatchdogTolerantOfAdvancingTime)
{
    EventQueue q;
    q.setWatchdog(4);
    int fired = 0;
    q.schedule(0, Chain{&q, &fired, 100, 1}, "chain");
    q.run();
    EXPECT_EQ(fired, 100);
    EXPECT_FALSE(q.stalled());
    EXPECT_FALSE(q.diagnostic().has_value());
}

TEST(EventQueue, NextTagReportsOldestPending)
{
    EventQueue q;
    EXPECT_EQ(q.nextTag(), nullptr);
    q.schedule(5, [] {}, "later");
    q.schedule(1, [] {}, "sooner");
    EXPECT_STREQ(q.nextTag(), "sooner");
}

TEST(EventQueue, NextWhenReportsOldestTimestamp)
{
    EventQueue q;
    EXPECT_EQ(q.nextWhen(), 0u);
    q.schedule(9, [] {});
    q.schedule(4, [] {});
    EXPECT_EQ(q.nextWhen(), 4u);
}

// Events far beyond the calendar's near window (kWindow cycles) park in
// the overflow heap and migrate into buckets as the window advances;
// order and tie-breaking must be indistinguishable from a flat heap.

TEST(EventQueue, FarFutureEventsExecuteInOrder)
{
    EventQueue q;
    std::vector<Cycle> order;
    const Cycle far = 10 * EventQueue::kWindow;
    q.schedule(far + 3, [&] { order.push_back(q.now()); });
    q.schedule(2, [&] { order.push_back(q.now()); });
    q.schedule(far, [&] { order.push_back(q.now()); });
    q.schedule(3 * far, [&] { order.push_back(q.now()); });
    q.run();
    EXPECT_EQ(order, (std::vector<Cycle>{2, far, far + 3, 3 * far}));
    EXPECT_EQ(q.now(), 3 * far);
}

TEST(EventQueue, TiesBreakByInsertionOrderAcrossTheWindowBoundary)
{
    EventQueue q;
    std::vector<int> order;
    const Cycle when = 2 * EventQueue::kWindow + 5;  // starts far
    for (int i = 0; i < 6; ++i)
        q.schedule(when, [&order, i] { order.push_back(i); });
    // Drag the window forward so some duplicates migrate from the far
    // heap while later ones are scheduled directly into the bucket.
    q.schedule(EventQueue::kWindow + 1, [&] {
        q.schedule(when, [&order] { order.push_back(6); });
    });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));
}

TEST(EventQueue, SparseTimestampsSkipEmptyBuckets)
{
    EventQueue q;
    int fired = 0;
    for (Cycle c : {Cycle{1}, Cycle{4095}, Cycle{4096}, Cycle{81920},
                    Cycle{1000000}})
        q.schedule(c, [&] { ++fired; });
    EXPECT_EQ(q.run(), 5u);
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(q.now(), 1000000u);
}

TEST(EventQueue, StressMatchesReferenceHeapOrdering)
{
    // Pseudo-random schedule pattern executed once through the calendar
    // queue and once through a reference (when, seq) sort; the two must
    // agree exactly — this is the determinism contract.
    EventQueue q;
    std::vector<std::pair<Cycle, int>> executed;
    std::vector<std::pair<Cycle, int>> expected;
    Rng rng(2024);
    int id = 0;
    for (int i = 0; i < 500; ++i) {
        const Cycle when = rng.below(3 * EventQueue::kWindow);
        expected.emplace_back(when, id);
        q.schedule(when, [&executed, &q, id] {
            executed.emplace_back(q.now(), id);
        });
        ++id;
    }
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    q.run();
    EXPECT_EQ(executed, expected);
}

/** Shared state of the re-entrant stress test's events. */
struct SpawnContext
{
    EventQueue *q;
    Rng rng{7};
    int nextId = 0;
    int budget = 0;
    std::vector<std::pair<Cycle, int>> log;
};

/** Delay of a spawned event: same-cycle one time in five, else up to
 *  three windows ahead (so both the buckets and the far heap fill). */
Cycle
spawnDelay(Rng &rng)
{
    return rng.chance(0.2) ? 0 : rng.below(3 * EventQueue::kWindow);
}

/** Logs itself, then schedules 0-2 children at random distances. */
struct Spawner
{
    SpawnContext *ctx;
    int id;

    void
    operator()() const
    {
        ctx->log.emplace_back(ctx->q->now(), id);
        const std::uint64_t children = ctx->rng.below(3);
        for (std::uint64_t c = 0; c < children && ctx->nextId < ctx->budget;
             ++c) {
            const Cycle when = ctx->q->now() + spawnDelay(ctx->rng);
            ctx->q->schedule(when, Spawner{ctx, ctx->nextId++}, "spawn");
        }
    }
};

TEST(EventQueue, ReentrantStressMatchesReferenceModel)
{
    // Events scheduled from inside running events, same-cycle included,
    // while the window slides: the dispatch order must be exactly the
    // (when, seq) order of a reference model that makes the same random
    // draws in that order.
    EventQueue q;
    SpawnContext ctx;
    ctx.q = &q;
    ctx.budget = 20000;
    Rng roots(11);
    for (; ctx.nextId < 200; ++ctx.nextId)
        q.schedule(roots.below(3 * EventQueue::kWindow),
                   Spawner{&ctx, ctx.nextId}, "root");
    q.run();

    // The model: a (when, seq) ordered set, replaying the same draws.
    std::set<std::tuple<Cycle, std::uint64_t, int>> pending;
    std::uint64_t seq = 0;
    Rng model_roots(11);
    Rng rng(7);
    int next_id = 0;
    for (; next_id < 200; ++next_id)
        pending.emplace(model_roots.below(3 * EventQueue::kWindow), seq++,
                        next_id);
    std::vector<std::pair<Cycle, int>> expected;
    while (!pending.empty()) {
        const auto [now, s, id] = *pending.begin();
        pending.erase(pending.begin());
        expected.emplace_back(now, id);
        const std::uint64_t children = rng.below(3);
        for (std::uint64_t c = 0; c < children && next_id < ctx.budget;
             ++c)
            pending.emplace(now + spawnDelay(rng), seq++, next_id++);
    }
    EXPECT_EQ(ctx.log.size(), static_cast<std::size_t>(ctx.budget));
    EXPECT_EQ(ctx.log, expected);
}

TEST(EventQueue, TiesBreakByInsertionOrderAcrossASlide)
{
    // A far event and a later direct schedule share a cycle. A chain of
    // events every 100 cycles keeps the near window busy, so the far
    // event reaches its bucket by sliding, never by re-basing an empty
    // window; the direct schedule, made after the slide, must still run
    // second.
    EventQueue q;
    std::vector<int> order;
    const Cycle when = EventQueue::kWindow + 50;
    q.schedule(when, [&order] { order.push_back(0); }, "far");
    struct Tick
    {
        EventQueue *q;
        std::vector<int> *order;
        Cycle when;
        void
        operator()() const
        {
            if (q->now() == 200)
                q->schedule(when, [o = order] { o->push_back(1); },
                            "direct");
            if (q->now() + 100 <= 2 * EventQueue::kWindow)
                q->schedule(q->now() + 100, *this, "tick");
        }
    };
    q.schedule(0, Tick{&q, &order, when}, "tick");
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

// ----------------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int differing = 0;
    for (int i = 0; i < 100; ++i)
        differing += a.next() != b.next() ? 1 : 0;
    EXPECT_GT(differing, 90);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000003ull}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.below(bound), bound);
    }
}

TEST(Rng, RangeIsInclusive)
{
    Rng rng(9);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t v = rng.range(5, 8);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 8u);
        saw_lo |= v == 5;
        saw_hi |= v == 8;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceRespectsProbability)
{
    Rng rng(13);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.chance(0.25) ? 1 : 0;
    EXPECT_NEAR(hits / 10000.0, 0.25, 0.03);
}

TEST(Rng, BelowRoughlyUniform)
{
    Rng rng(17);
    int buckets[4] = {0, 0, 0, 0};
    for (int i = 0; i < 8000; ++i)
        buckets[rng.below(4)] += 1;
    for (int b : buckets)
        EXPECT_NEAR(b, 2000, 250);
}

// ---------------------------------------------------------- BandwidthResource

TEST(BandwidthResource, ServiceCyclesRoundUp)
{
    BandwidthResource pipe("p", 32.0);
    EXPECT_EQ(pipe.serviceCycles(0), 0u);
    EXPECT_EQ(pipe.serviceCycles(1), 1u);
    EXPECT_EQ(pipe.serviceCycles(32), 1u);
    EXPECT_EQ(pipe.serviceCycles(33), 2u);
    EXPECT_EQ(pipe.serviceCycles(4096), 128u);
}

TEST(BandwidthResource, SingleTransferCompletesAfterService)
{
    BandwidthResource pipe("p", 1.0, 1);
    EXPECT_EQ(pipe.acquire(100, 50), 150u);
    EXPECT_EQ(pipe.busyCycles(), 50u);
    EXPECT_EQ(pipe.bytesMoved(), 50u);
}

TEST(BandwidthResource, SingleChannelSerializes)
{
    BandwidthResource pipe("p", 1.0, 1);
    EXPECT_EQ(pipe.acquire(0, 10), 10u);
    EXPECT_EQ(pipe.acquire(0, 10), 20u);  // queues behind the first
}

TEST(BandwidthResource, ChannelsAbsorbTimestampSkew)
{
    BandwidthResource pipe("p", 1.0, 4);
    // A future-timestamped transfer must not delay a present one.
    pipe.acquire(1000, 10);
    EXPECT_EQ(pipe.acquire(0, 10), 10u);
}

TEST(BandwidthResource, SaturationQueuesAcrossChannels)
{
    BandwidthResource pipe("p", 1.0, 2);
    EXPECT_EQ(pipe.acquire(0, 10), 10u);
    EXPECT_EQ(pipe.acquire(0, 10), 10u);
    EXPECT_EQ(pipe.acquire(0, 10), 20u);  // both channels busy
}

// ------------------------------------------------------------------ ServerPool

TEST(ServerPool, ParallelUpToServerCount)
{
    ServerPool pool("s", 3);
    EXPECT_EQ(pool.acquire(0, 100), 100u);
    EXPECT_EQ(pool.acquire(0, 100), 100u);
    EXPECT_EQ(pool.acquire(0, 100), 100u);
    EXPECT_EQ(pool.acquire(0, 100), 200u);  // fourth queues
    EXPECT_EQ(pool.requests(), 4u);
    EXPECT_EQ(pool.busyCycles(), 400u);
    EXPECT_EQ(pool.queueDelay(), 100u);
}

TEST(ServerPool, LaterArrivalStartsImmediately)
{
    ServerPool pool("s", 1);
    pool.acquire(0, 10);
    EXPECT_EQ(pool.acquire(50, 10), 60u);
    EXPECT_EQ(pool.queueDelay(), 0u);
}

/** Property sweep: a pool of N servers with per-request service S must
 *  finish K simultaneous requests at ceil(K/N)*S. */
class ServerPoolThroughput
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(ServerPoolThroughput, BatchCompletesAtExpectedTime)
{
    const auto [servers, requests] = GetParam();
    ServerPool pool("s", servers);
    Cycle last = 0;
    for (unsigned i = 0; i < requests; ++i)
        last = std::max(last, pool.acquire(0, 100));
    const Cycle waves = (requests + servers - 1) / servers;
    EXPECT_EQ(last, waves * 100);
}

INSTANTIATE_TEST_SUITE_P(
    Geometry, ServerPoolThroughput,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Values(1u, 3u, 8u, 17u)));

// ------------------------------------------------------------ Resource picks

TEST(FirstMinIndex, MatchesMinElementOnTies)
{
    // Values from a four-value range, so ties are the rule: the lowest
    // index must win, exactly as with std::min_element.
    Rng rng(17);
    for (std::size_t n : {1u, 2u, 12u, 16u, 17u}) {
        std::vector<std::uint64_t> v(n);
        for (int i = 0; i < 2000; ++i) {
            for (std::uint64_t &x : v)
                x = rng.below(4);
            ASSERT_EQ(firstMinIndex(v.data(), n),
                      static_cast<std::size_t>(
                          std::min_element(v.begin(), v.end()) - v.begin()))
                << "n " << n << " draw " << i;
        }
    }
}

class ResourcePicks : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(ResourcePicks, MatchTheMinElementReference)
{
    // Both resources against the std::min_element picks they replaced,
    // on a stream of near-simultaneous requests that keeps several
    // channels (servers) tied: every completion time must match.
    const unsigned channels = GetParam();
    BandwidthResource pipe("p", 3.0, channels);
    ServerPool pool("s", channels);
    std::vector<Cycle> pipe_free(channels, 0);
    std::vector<Cycle> pool_free(channels, 0);
    Rng rng(channels);
    Cycle now = 0;
    for (int i = 0; i < 5000; ++i) {
        now += rng.below(4);
        const std::uint64_t bytes = 1 + rng.below(64);
        auto channel = std::min_element(pipe_free.begin(), pipe_free.end());
        *channel = std::max(now, *channel) + pipe.serviceCycles(bytes);
        ASSERT_EQ(pipe.acquire(now, bytes), *channel) << i;
        ASSERT_EQ(pipe.nextFree(),
                  *std::min_element(pipe_free.begin(), pipe_free.end()));

        const Cycle service = rng.below(3) * 20;
        auto server = std::min_element(pool_free.begin(), pool_free.end());
        *server = std::max(now, *server) + service;
        ASSERT_EQ(pool.acquire(now, service), *server) << i;
    }
    EXPECT_GT(pool.queueDelay(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Channels, ResourcePicks,
                         ::testing::Values(1u, 2u, 12u, 16u, 17u));

}  // namespace
}  // namespace grit::sim
