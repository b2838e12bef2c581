/** @file Unit tests for counters, latency breakdown and the interval
 *  sampler. */

#include <gtest/gtest.h>

#include "stats/counters.h"
#include "stats/interval_sampler.h"
#include "stats/latency_breakdown.h"

namespace grit::stats {
namespace {

TEST(Counter, StartsAtZeroAndIncrements)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
}

TEST(StatSet, CreatesOnFirstUse)
{
    StatSet s;
    EXPECT_EQ(s.get("missing"), 0u);
    s.counter("a").inc(3);
    EXPECT_EQ(s.get("a"), 3u);
}

TEST(StatSet, ItemsSortedByName)
{
    StatSet s;
    s.counter("zeta").inc(1);
    s.counter("alpha").inc(2);
    s.counter("mid").inc(3);
    const auto items = s.items();
    ASSERT_EQ(items.size(), 3u);
    EXPECT_EQ(items[0].first, "alpha");
    EXPECT_EQ(items[1].first, "mid");
    EXPECT_EQ(items[2].first, "zeta");
}

TEST(LatencyBreakdown, SixCategoriesWithPaperNames)
{
    EXPECT_STREQ(latencyKindName(LatencyKind::kLocal), "Local");
    EXPECT_STREQ(latencyKindName(LatencyKind::kHost), "Host");
    EXPECT_STREQ(latencyKindName(LatencyKind::kPageMigration),
                 "Page-migration");
    EXPECT_STREQ(latencyKindName(LatencyKind::kRemoteAccess),
                 "Remote-access");
    EXPECT_STREQ(latencyKindName(LatencyKind::kPageDuplication),
                 "Page-duplication");
    EXPECT_STREQ(latencyKindName(LatencyKind::kWriteCollapse),
                 "Write-collapse");
    EXPECT_EQ(kLatencyKinds, 6u);
}

TEST(LatencyBreakdown, AccumulatesAndTotals)
{
    LatencyBreakdown b;
    b.add(LatencyKind::kLocal, 10);
    b.add(LatencyKind::kLocal, 5);
    b.add(LatencyKind::kWriteCollapse, 25);
    EXPECT_EQ(b.get(LatencyKind::kLocal), 15u);
    EXPECT_EQ(b.total(), 40u);
    EXPECT_DOUBLE_EQ(b.fraction(LatencyKind::kLocal), 15.0 / 40.0);
}

TEST(LatencyBreakdown, EmptyFractionIsZero)
{
    LatencyBreakdown b;
    EXPECT_DOUBLE_EQ(b.fraction(LatencyKind::kHost), 0.0);
}

TEST(IntervalSampler, BucketsObservationsByTime)
{
    IntervalSampler s(100, 2);
    s.record(0, 0);
    s.record(99, 0);
    s.record(100, 1);
    s.record(250, 0, 5);
    EXPECT_EQ(s.get(0, 0), 2u);
    EXPECT_EQ(s.get(1, 1), 1u);
    EXPECT_EQ(s.get(2, 0), 5u);
    EXPECT_EQ(s.intervals(), 3u);
}

TEST(IntervalSampler, TotalsAndFractions)
{
    IntervalSampler s(10, 2);
    s.record(5, 0, 3);
    s.record(5, 1, 1);
    EXPECT_EQ(s.intervalTotal(0), 4u);
    EXPECT_DOUBLE_EQ(s.fraction(0, 0), 0.75);
    EXPECT_DOUBLE_EQ(s.fraction(7, 0), 0.0);  // untouched interval
}

TEST(IntervalSampler, OutOfRangeReadsAreZero)
{
    IntervalSampler s(10, 2);
    EXPECT_EQ(s.get(5, 0), 0u);
    EXPECT_EQ(s.get(0, 9), 0u);
}

}  // namespace
}  // namespace grit::stats
