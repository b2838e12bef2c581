/** @file Unit tests for the PA-Table and PA-Cache (paper Section V-C,
 *  Figure 12). */

#include <gtest/gtest.h>

#include "core/pa_cache.h"
#include "core/pa_table.h"

namespace grit::core {
namespace {

// -------------------------------------------------------------------- PaTable

TEST(PaTable, PutFindErase)
{
    PaTable table;
    EXPECT_EQ(table.find(5), nullptr);
    table.put(5, PaEntry{2, true});
    const PaEntry *entry = table.find(5);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->faultCounter, 2u);
    EXPECT_TRUE(entry->writeSeen);
    EXPECT_TRUE(table.erase(5));
    EXPECT_FALSE(table.erase(5));
    EXPECT_EQ(table.find(5), nullptr);
}

TEST(PaTable, FootprintIs48BitsPerEntry)
{
    PaTable table;
    for (sim::PageId p = 0; p < 100; ++p)
        table.put(p, PaEntry{});
    // Section V-F: 48 bits per entry.
    EXPECT_EQ(table.footprintBytes(), 100u * 48 / 8);
}

TEST(PaTable, PaperOverheadRatio)
{
    // 48 bits per 4 KB page = 0.15 % of the footprint (Section V-F).
    const double ratio = 48.0 / 8.0 / 4096.0;
    EXPECT_NEAR(ratio * 100.0, 0.15, 0.01);
}

TEST(PaTable, TracksReadsAndWrites)
{
    PaTable table;
    table.put(1, PaEntry{});
    table.find(1);
    table.find(2);
    EXPECT_EQ(table.writes(), 1u);
    EXPECT_EQ(table.reads(), 2u);
}

// -------------------------------------------------------------------- PaCache

TEST(PaCache, PaperGeometry)
{
    PaTable table;
    PaCache cache(table);
    EXPECT_EQ(cache.sets(), 16u);  // 64 entries, 4-way
    EXPECT_EQ(cache.ways(), 4u);
    // Section V-F: (41 + 2 + 1) bits x 64 entries = 352 bytes.
    EXPECT_EQ(cache.hardwareBytes(), 352u);
}

TEST(PaCache, FirstFaultRegistersInCache)
{
    PaTable table;
    PaCache cache(table);
    const PaAccessResult r = cache.recordFault(10, false, 4);
    EXPECT_FALSE(r.cacheHit);
    EXPECT_FALSE(r.tableHit);
    EXPECT_EQ(r.faultCount, 1u);
    EXPECT_FALSE(r.triggered);
    EXPECT_EQ(cache.occupancy(), 1u);
    // Fresh entries live in the cache, not the table (write-allocate).
    EXPECT_EQ(table.size(), 0u);
}

TEST(PaCache, RepeatFaultHitsAndCounts)
{
    PaTable table;
    PaCache cache(table);
    cache.recordFault(10, false, 4);
    const PaAccessResult r = cache.recordFault(10, false, 4);
    EXPECT_TRUE(r.cacheHit);
    EXPECT_EQ(r.faultCount, 2u);
}

TEST(PaCache, WriteBitIsSticky)
{
    PaTable table;
    PaCache cache(table);
    cache.recordFault(10, true, 8);
    const PaAccessResult r = cache.recordFault(10, false, 8);
    EXPECT_TRUE(r.writeSeen);  // stays set for the entry's lifetime
}

TEST(PaCache, TriggerDeletesFromCacheAndTable)
{
    PaTable table;
    PaCache cache(table);
    for (int i = 0; i < 3; ++i)
        EXPECT_FALSE(cache.recordFault(10, false, 4).triggered);
    const PaAccessResult r = cache.recordFault(10, false, 4);
    EXPECT_TRUE(r.triggered);
    EXPECT_EQ(r.faultCount, 4u);
    EXPECT_EQ(cache.occupancy(), 0u);
    EXPECT_EQ(table.find(10), nullptr);
    // The next fault starts a fresh episode.
    EXPECT_EQ(cache.recordFault(10, false, 4).faultCount, 1u);
}

TEST(PaCache, EvictionWritesBackToTable)
{
    PaTable table;
    PaCache cache(table, /*entries=*/4, /*ways=*/1);  // 4 sets, direct
    // Two VPNs mapping to the same set (stride = sets).
    cache.recordFault(0, true, 8);
    cache.recordFault(0, true, 8);
    const PaAccessResult r = cache.recordFault(4, false, 8);  // same set
    EXPECT_TRUE(r.wroteBack);
    const PaEntry *spilled = table.find(0);
    ASSERT_NE(spilled, nullptr);
    EXPECT_EQ(spilled->faultCounter, 2u);
    EXPECT_TRUE(spilled->writeSeen);
    EXPECT_EQ(cache.writebacks(), 1u);
}

TEST(PaCache, WriteAllocateBringsTableEntryBack)
{
    PaTable table;
    PaCache cache(table, 4, 1);
    cache.recordFault(0, true, 8);
    cache.recordFault(4, false, 8);  // evicts VPN 0 to the table
    const PaAccessResult r = cache.recordFault(0, false, 8);
    EXPECT_FALSE(r.cacheHit);
    EXPECT_TRUE(r.tableHit);
    EXPECT_EQ(r.faultCount, 2u);   // resumed, not restarted
    EXPECT_TRUE(r.writeSeen);      // sticky bit survived the round trip
    EXPECT_EQ(table.find(0), nullptr);  // moved back into the cache
}

TEST(PaCache, IndexUsesLowVpnBits)
{
    PaTable table;
    PaCache cache(table);  // 16 sets
    // 17 VPNs with distinct low bits spread across sets: no eviction.
    for (sim::PageId vpn = 0; vpn < 16; ++vpn)
        cache.recordFault(vpn, false, 100);
    EXPECT_EQ(cache.occupancy(), 16u);
    EXPECT_EQ(cache.writebacks(), 0u);
}

TEST(PaCache, LruWithinSet)
{
    PaTable table;
    PaCache cache(table, /*entries=*/2, /*ways=*/2);  // one set
    cache.recordFault(0, false, 100);
    cache.recordFault(1, false, 100);
    cache.recordFault(0, false, 100);  // 1 becomes LRU
    cache.recordFault(2, false, 100);  // evicts 1
    EXPECT_NE(table.find(1), nullptr);
    EXPECT_EQ(table.find(0), nullptr);
}

/** Property sweep: triggers always fire at exactly the threshold. */
class PaCacheThreshold : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(PaCacheThreshold, FiresAtThreshold)
{
    const std::uint32_t threshold = GetParam();
    PaTable table;
    PaCache cache(table);
    for (std::uint32_t i = 1; i < threshold; ++i)
        EXPECT_FALSE(cache.recordFault(42, false, threshold).triggered);
    EXPECT_TRUE(cache.recordFault(42, false, threshold).triggered);
}

INSTANTIATE_TEST_SUITE_P(Figure21Thresholds, PaCacheThreshold,
                         ::testing::Values(2u, 4u, 8u, 16u));

}  // namespace
}  // namespace grit::core
