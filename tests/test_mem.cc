/** @file Unit tests for page tables, TLBs, walk cache, data cache, DRAM
 *  manager, and access counters. */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <optional>
#include <unordered_map>
#include <vector>

#include "mem/access_counter.h"
#include "mem/data_cache.h"
#include "mem/dram_manager.h"
#include "mem/page_table.h"
#include "mem/page_walk_cache.h"
#include "mem/tlb.h"
#include "simcore/rng.h"

namespace grit::mem {
namespace {

// ------------------------------------------------------------------ PageTable

TEST(PageTable, InstallAndLookup)
{
    PageTable pt;
    EXPECT_FALSE(pt.translates(5));
    pt.install(5, MappingKind::kLocal, 0, /*writable=*/true);
    EXPECT_TRUE(pt.translates(5));
    const PteRecord *rec = pt.find(5);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->kind(), MappingKind::kLocal);
    EXPECT_EQ(rec->location(), 0);
    EXPECT_TRUE(rec->pte.writable());
}

TEST(PageTable, RemoteMapping)
{
    PageTable pt;
    pt.install(9, MappingKind::kRemote, 3, /*writable=*/true);
    EXPECT_EQ(pt.find(9)->kind(), MappingKind::kRemote);
    EXPECT_EQ(pt.find(9)->location(), 3);
}

TEST(PageTable, InvalidateKeepsSchemeAnnotation)
{
    PageTable pt;
    pt.install(7, MappingKind::kLocal, 1, true);
    pt.setScheme(7, Scheme::kDuplication);
    pt.invalidate(7);
    EXPECT_FALSE(pt.translates(7));
    EXPECT_EQ(pt.scheme(7), Scheme::kDuplication);
}

TEST(PageTable, SchemeAnnotationBeforeMapping)
{
    PageTable pt;
    pt.setScheme(11, Scheme::kAccessCounter);
    EXPECT_FALSE(pt.translates(11));
    EXPECT_EQ(pt.scheme(11), Scheme::kAccessCounter);
    pt.setGroupBits(11, GroupBits::kPages8);
    EXPECT_EQ(pt.groupBits(11), GroupBits::kPages8);
}

TEST(PageTable, EraseRemovesEntry)
{
    PageTable pt;
    pt.install(3, MappingKind::kLocal, 0, true);
    pt.erase(3);
    EXPECT_EQ(pt.find(3), nullptr);
    EXPECT_EQ(pt.scheme(3), Scheme::kNone);
}

TEST(PageTable, ValidCountExcludesAnnotations)
{
    PageTable pt;
    pt.install(1, MappingKind::kLocal, 0, true);
    pt.install(2, MappingKind::kLocal, 0, true);
    pt.setScheme(3, Scheme::kOnTouch);  // annotation only
    pt.invalidate(2);
    EXPECT_EQ(pt.size(), 3u);
    EXPECT_EQ(pt.validCount(), 1u);
}

TEST(PageTable, ReadOnlyReplicaFlag)
{
    PageTable pt;
    pt.install(4, MappingKind::kLocal, 2, /*writable=*/false,
               /*read_only_replica=*/true);
    EXPECT_TRUE(pt.find(4)->readOnlyReplica());
    pt.invalidate(4);
    EXPECT_FALSE(pt.find(4)->readOnlyReplica());
}

// ------------------------------------------------------------------------ Tlb

TEST(Tlb, MissThenHit)
{
    Tlb tlb("t", 32, 32, 1);
    EXPECT_FALSE(tlb.lookup(10));
    tlb.insert(10);
    EXPECT_TRUE(tlb.lookup(10));
    EXPECT_EQ(tlb.hits(), 1u);
    EXPECT_EQ(tlb.misses(), 1u);
}

TEST(Tlb, LruEvictionWithinSet)
{
    Tlb tlb("t", 2, 2, 1);  // one set, two ways
    tlb.insert(1);
    tlb.insert(2);
    EXPECT_TRUE(tlb.lookup(1));  // make 2 the LRU
    tlb.insert(3);               // evicts 2
    EXPECT_TRUE(tlb.lookup(1));
    EXPECT_FALSE(tlb.lookup(2));
    EXPECT_TRUE(tlb.lookup(3));
}

TEST(Tlb, SetsIndexedByPageModulo)
{
    Tlb tlb("t", 4, 2, 1);  // two sets
    // Pages 0 and 2 map to set 0; 1 and 3 to set 1.
    tlb.insert(0);
    tlb.insert(2);
    tlb.insert(4);  // evicts within set 0 only
    EXPECT_TRUE(tlb.lookup(4));
    EXPECT_EQ(tlb.occupancy(), 2u);
}

TEST(Tlb, InvalidateSinglePage)
{
    Tlb tlb("t", 32, 32, 1);
    tlb.insert(5);
    tlb.insert(6);
    tlb.invalidate(5);
    EXPECT_FALSE(tlb.lookup(5));
    EXPECT_TRUE(tlb.lookup(6));
}

TEST(Tlb, FlushAllIsTotal)
{
    Tlb tlb("t", 32, 32, 1);
    for (sim::PageId p = 0; p < 20; ++p)
        tlb.insert(p);
    EXPECT_EQ(tlb.occupancy(), 20u);
    tlb.flushAll();
    EXPECT_EQ(tlb.occupancy(), 0u);
    EXPECT_FALSE(tlb.lookup(3));
    tlb.insert(3);
    EXPECT_TRUE(tlb.lookup(3));  // usable after flush
}

TEST(Tlb, DoubleInsertDoesNotDuplicate)
{
    Tlb tlb("t", 4, 4, 1);
    tlb.insert(9);
    tlb.insert(9);
    EXPECT_EQ(tlb.occupancy(), 1u);
}

TEST(Tlb, InsertReportsTheLivePageItDisplaces)
{
    Tlb tlb("t", 2, 2, 1);  // one set, two ways
    EXPECT_EQ(tlb.insert(1), std::nullopt);
    EXPECT_EQ(tlb.insert(2), std::nullopt);
    EXPECT_EQ(tlb.insert(3), std::optional<sim::PageId>(1));  // the LRU
    EXPECT_FALSE(tlb.holds(1));
    tlb.invalidate(2);
    EXPECT_EQ(tlb.insert(4), std::nullopt);  // refills the dead slot
    EXPECT_EQ(tlb.insert(4), std::nullopt);  // already present
}

TEST(Tlb, RefillBeforeALiveCopyHoldsTwoCopies)
{
    // An insert stops at the first invalid slot, so a page live further
    // along the set gets a second copy; displacing one copy leaves the
    // page held. (The shootdown filter depends on holds() here.)
    Tlb tlb("t", 3, 3, 1);
    tlb.insert(1);
    tlb.insert(7);
    tlb.invalidate(1);
    EXPECT_EQ(tlb.insert(7), std::nullopt);  // second copy, in slot 0
    EXPECT_EQ(tlb.occupancy(), 2u);
    EXPECT_EQ(tlb.insert(8), std::nullopt);  // last free slot
    EXPECT_EQ(tlb.insert(9), std::optional<sim::PageId>(7));  // older copy
    EXPECT_TRUE(tlb.holds(7));
    EXPECT_TRUE(tlb.lookup(7));
}

TEST(Tlb, InvalidateKillsEveryCopy)
{
    // Each refill that finds a dead way before the page's first copy
    // adds one more copy, so a set can hold a page three times; one
    // shootdown must kill them all.
    Tlb tlb("t", 4, 4, 1);
    for (const sim::PageId page : {1, 2, 7, 3})
        tlb.insert(page);
    tlb.invalidate(2);
    tlb.insert(7);  // slot 1
    tlb.invalidate(1);
    tlb.insert(7);  // slot 0
    EXPECT_EQ(tlb.livePages(), (std::vector<sim::PageId>{7, 7, 7, 3}));
    tlb.invalidate(7);
    EXPECT_FALSE(tlb.holds(7));
    EXPECT_EQ(tlb.livePages(), std::vector<sim::PageId>{3});
}

/** Property sweep over Table I TLB geometries. */
class TlbGeometry
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(TlbGeometry, CapacityNeverExceeded)
{
    const auto [entries, ways] = GetParam();
    Tlb tlb("t", entries, ways, 1);
    for (sim::PageId p = 0; p < 4 * entries; ++p)
        tlb.insert(p);
    EXPECT_LE(tlb.occupancy(), entries);
}

INSTANTIATE_TEST_SUITE_P(
    TableIGeometries, TlbGeometry,
    ::testing::Values(std::make_tuple(32u, 32u),    // L1 TLB
                      std::make_tuple(512u, 16u),   // L2 TLB
                      std::make_tuple(64u, 4u),
                      std::make_tuple(16u, 1u)));

/**
 * The TLB as a way-order scan over page / lastUse / generation arrays:
 * the layout Tlb replaced, kept as the reference its live-way masks
 * must match slot for slot.
 */
class ScanTlb
{
  public:
    ScanTlb(unsigned entries, unsigned ways)
        : sets_(entries / ways),
          ways_(ways),
          pages_(entries, 0),
          lastUse_(entries, 0),
          genOf_(entries, 0)
    {
    }

    bool
    lookup(sim::PageId page)
    {
        ++tick_;
        const std::size_t base = (page % sets_) * ways_;
        for (std::size_t i = base; i < base + ways_; ++i) {
            if (pages_[i] == page && live(i)) {
                lastUse_[i] = tick_;
                ++hits_;
                return true;
            }
        }
        ++misses_;
        return false;
    }

    std::optional<sim::PageId>
    insert(sim::PageId page)
    {
        ++tick_;
        const std::size_t base = (page % sets_) * ways_;
        std::size_t victim = base;
        for (unsigned w = 0; w < ways_; ++w) {
            const std::size_t i = base + w;
            if (!live(i)) {
                victim = i;
                break;
            }
            if (pages_[i] == page) {
                lastUse_[i] = tick_;
                return std::nullopt;
            }
            if (lastUse_[i] < lastUse_[victim])
                victim = i;
        }
        std::optional<sim::PageId> displaced;
        if (live(victim))
            displaced = pages_[victim];
        pages_[victim] = page;
        lastUse_[victim] = tick_;
        genOf_[victim] = gen_;
        return displaced;
    }

    bool
    holds(sim::PageId page) const
    {
        const std::size_t base = (page % sets_) * ways_;
        for (std::size_t i = base; i < base + ways_; ++i)
            if (pages_[i] == page && live(i))
                return true;
        return false;
    }

    /** Live pages of @p page's set, in way order. */
    std::vector<sim::PageId>
    setPages(sim::PageId page) const
    {
        std::vector<sim::PageId> out;
        const std::size_t base = (page % sets_) * ways_;
        for (std::size_t i = base; i < base + ways_; ++i)
            if (live(i))
                out.push_back(pages_[i]);
        return out;
    }

    void
    invalidate(sim::PageId page)
    {
        const std::size_t base = (page % sets_) * ways_;
        for (std::size_t i = base; i < base + ways_; ++i)
            if (pages_[i] == page && live(i))
                genOf_[i] = 0;
    }

    void flushAll() { ++gen_; }

    std::vector<sim::PageId>
    livePages() const
    {
        std::vector<sim::PageId> out;
        for (std::size_t i = 0; i < genOf_.size(); ++i)
            if (live(i))
                out.push_back(pages_[i]);
        return out;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    bool live(std::size_t i) const { return genOf_[i] == gen_; }

    unsigned sets_;
    unsigned ways_;
    std::vector<sim::PageId> pages_;
    std::vector<std::uint64_t> lastUse_;
    std::vector<std::uint64_t> genOf_;
    std::uint64_t tick_ = 0;
    std::uint64_t gen_ = 1;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

class TlbEquivalence
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(TlbEquivalence, MatchesTheWayOrderScan)
{
    // A seeded stream of lookups, inserts (fills after their lookup
    // missed, and refills without one, as after a protection fault),
    // single-page shootdowns and full flushes over a page universe twice
    // the capacity: every return value, displaced page, hit and miss
    // count and livePages() order must match the scan at every step.
    const auto [entries, ways] = GetParam();
    Tlb tlb("t", entries, ways, 1);
    ScanTlb reference(entries, ways);
    sim::Rng rng(entries * 131 + ways);
    const std::uint64_t universe = 2 * entries;
    std::uint64_t displacements = 0;
    std::uint64_t twins = 0;
    for (int i = 0; i < 20000; ++i) {
        const sim::PageId page = rng.chance(0.5)
                                     ? rng.below(entries / 2 + 1)
                                     : rng.below(universe);
        const std::uint64_t op = rng.below(100);
        if (rng.below(8 * entries) == 0) {
            tlb.flushAll();
            reference.flushAll();
        } else if (op < 40) {
            const bool hit = tlb.lookup(page);
            ASSERT_EQ(hit, reference.lookup(page)) << i;
            // Usually fill the page the lookup missed, as a translation
            // does after its walk.
            if (!hit && rng.chance(0.7)) {
                ASSERT_EQ(tlb.insert(page), reference.insert(page)) << i;
            }
        } else if (op < 85) {
            const std::optional<sim::PageId> displaced = tlb.insert(page);
            ASSERT_EQ(displaced, reference.insert(page)) << i;
            if (displaced) {
                ++displacements;
                ASSERT_EQ(tlb.holds(*displaced),
                          reference.holds(*displaced))
                    << i;
            }
        } else if (op < 95) {
            tlb.invalidate(page);
            reference.invalidate(page);
        } else {
            ASSERT_EQ(tlb.holds(page), reference.holds(page)) << i;
        }
        ASSERT_EQ(tlb.hits(), reference.hits()) << i;
        ASSERT_EQ(tlb.misses(), reference.misses()) << i;
        ASSERT_EQ(tlb.livePages(), reference.livePages()) << i;
        ASSERT_EQ(tlb.occupancy(), reference.livePages().size()) << i;
        std::vector<sim::PageId> set = reference.setPages(page);
        std::sort(set.begin(), set.end());
        twins += std::adjacent_find(set.begin(), set.end()) != set.end();
    }
    EXPECT_GT(tlb.hits(), 0u);
    EXPECT_GT(displacements, 0u);
    if (ways > 1) {
        EXPECT_GT(twins, 0u);  // the refill trap was exercised
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TlbEquivalence,
    ::testing::Values(std::make_tuple(32u, 32u),    // L1 TLB
                      std::make_tuple(512u, 16u),   // L2 TLB
                      std::make_tuple(3u, 3u),
                      std::make_tuple(16u, 1u),
                      std::make_tuple(100u, 100u),  // a set over 64 ways
                      std::make_tuple(256u, 128u)));

// -------------------------------------------------------------- PageWalkCache

TEST(PageWalkCache, ColdWalkTakesAllLevels)
{
    PageWalkCache pwc(128);
    EXPECT_EQ(pwc.walkAccesses(0x12345), PageWalkCache::kLevels);
}

TEST(PageWalkCache, FilledPrefixShortensWalk)
{
    PageWalkCache pwc(128);
    pwc.fill(0x12345);
    EXPECT_EQ(pwc.walkAccesses(0x12345), 1u);  // leaf access only
    // A page in the same 2 MB region shares the level-1 prefix.
    EXPECT_EQ(pwc.walkAccesses(0x12345 ^ 0x1), 1u);
}

TEST(PageWalkCache, DistantPageSharesOnlyUpperLevels)
{
    PageWalkCache pwc(128);
    pwc.fill(0);  // covers prefixes of page 0
    // Same 1 GB region, different 2 MB region: level-2 hit -> 2 accesses.
    EXPECT_EQ(pwc.walkAccesses(1 << 9), 2u);
    // Same 512 GB region, different 1 GB region: 3 accesses.
    EXPECT_EQ(pwc.walkAccesses(1 << 18), 3u);
    // Different top-level region: full walk.
    EXPECT_EQ(pwc.walkAccesses(std::uint64_t{1} << 27), 4u);
}

TEST(PageWalkCache, FlushRestoresFullWalks)
{
    PageWalkCache pwc(128);
    pwc.fill(42);
    pwc.flushAll();
    EXPECT_EQ(pwc.walkAccesses(42), PageWalkCache::kLevels);
}

TEST(PageWalkCache, RecordsHitsAndMisses)
{
    PageWalkCache pwc(128);
    pwc.recordWalk(4);
    pwc.recordWalk(1);
    EXPECT_EQ(pwc.hits(), 1u);
    EXPECT_EQ(pwc.misses(), 1u);
}

/**
 * The walk cache as a linear-scan LRU over valid/lastUse entries: the
 * layout PageWalkCache replaced, kept as the reference its indexed,
 * intrusive-list version must match walk for walk.
 */
class ScanWalkCache
{
  public:
    explicit ScanWalkCache(unsigned entries) : entries_(entries) {}

    unsigned
    walkAccesses(sim::PageId page) const
    {
        for (unsigned level = 1; level < PageWalkCache::kLevels; ++level)
            if (contains(key(page, level)))
                return level;
        return PageWalkCache::kLevels;
    }

    void
    fill(sim::PageId page)
    {
        for (unsigned level = 1; level < PageWalkCache::kLevels; ++level)
            touch(key(page, level));
    }

    void
    flushAll()
    {
        for (Entry &e : entries_)
            e.valid = false;
    }

  private:
    struct Entry
    {
        std::uint64_t key = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    static std::uint64_t
    key(sim::PageId page, unsigned level)
    {
        return (page >> (9 * level)) |
               (static_cast<std::uint64_t>(level) << 60);
    }

    bool
    contains(std::uint64_t key) const
    {
        for (const Entry &e : entries_)
            if (e.valid && e.key == key)
                return true;
        return false;
    }

    void
    touch(std::uint64_t key)
    {
        ++tick_;
        Entry *victim = &entries_.front();
        for (Entry &e : entries_) {
            if (e.valid && e.key == key) {
                e.lastUse = tick_;
                return;
            }
            if (!e.valid) {
                victim = &e;
                break;
            }
            if (e.lastUse < victim->lastUse)
                victim = &e;
        }
        victim->key = key;
        victim->lastUse = tick_;
        victim->valid = true;
    }

    std::vector<Entry> entries_;
    std::uint64_t tick_ = 0;
};

class WalkCacheEquivalence : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(WalkCacheEquivalence, MatchesTheLinearScanLru)
{
    // A seeded walk stream over hot and cold 2 MB / 1 GB / 512 GB
    // prefixes, with occasional full flushes: every walk must cost the
    // same number of accesses as under the scanned LRU.
    const unsigned capacity = GetParam();
    PageWalkCache pwc(capacity);
    ScanWalkCache reference(capacity);
    sim::Rng rng(capacity);
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t shortened = 0;  // walks the cache made cheaper
    for (int i = 0; i < 40000; ++i) {
        if (rng.below(400) == 0) {
            pwc.flushAll();
            reference.flushAll();
        }
        const std::uint64_t prefixes = rng.chance(0.5) ? 4 : 256;
        const sim::PageId page = (rng.below(3) << 27) +
                                 (rng.below(4) << 18) +
                                 (rng.below(prefixes) << 9) +
                                 rng.below(512);
        const unsigned accesses = pwc.walkAccesses(page);
        ASSERT_EQ(accesses, reference.walkAccesses(page)) << "walk " << i;
        pwc.recordWalk(accesses);
        (accesses <= 1 ? hits : misses) += 1;
        shortened += accesses < PageWalkCache::kLevels;
        pwc.fill(page);
        reference.fill(page);
    }
    EXPECT_EQ(pwc.hits(), hits);
    EXPECT_EQ(pwc.misses(), misses);
    EXPECT_GT(shortened, 0u);
    EXPECT_GT(misses, 0u);
}

INSTANTIATE_TEST_SUITE_P(Capacities, WalkCacheEquivalence,
                         ::testing::Values(1u, 3u, 128u));

// ------------------------------------------------------------------ DataCache

TEST(DataCache, MissFillsThenHits)
{
    DataCache cache("c", 1024, 2, 64, 10);
    EXPECT_FALSE(cache.access(7));
    EXPECT_TRUE(cache.access(7));
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(DataCache, LruEvictionWithinSet)
{
    DataCache cache("c", 2 * 64, 2, 64, 10);  // one set, two ways
    cache.access(1);
    cache.access(2);
    cache.access(1);  // 2 becomes LRU
    cache.access(3);  // evicts 2
    EXPECT_TRUE(cache.contains(1));
    EXPECT_FALSE(cache.contains(2));
    EXPECT_TRUE(cache.contains(3));
}

TEST(DataCache, InvalidatePageRemovesItsLines)
{
    DataCache cache("c", 256 * 1024, 16, 64, 10);
    const unsigned lines_per_page = 64;
    cache.access(5 * lines_per_page + 3);
    cache.access(6 * lines_per_page + 3);
    cache.invalidatePage(5, lines_per_page);
    EXPECT_FALSE(cache.contains(5 * lines_per_page + 3));
    EXPECT_TRUE(cache.contains(6 * lines_per_page + 3));
}

TEST(DataCache, FlushAllClears)
{
    DataCache cache("c", 1024, 2, 64, 10);
    cache.access(1);
    cache.flushAll();
    EXPECT_FALSE(cache.contains(1));
    EXPECT_FALSE(cache.access(1));  // refill works
    EXPECT_TRUE(cache.contains(1));
}

/**
 * The data cache as a way-order scan over line / lastUse / generation
 * arrays: the layout DataCache replaced, kept as the reference its
 * live-way masks must match fill for fill.
 */
class ScanDataCache
{
  public:
    ScanDataCache(unsigned lines, unsigned ways)
        : sets_(lines / ways),
          ways_(ways),
          lines_(lines, 0),
          lastUse_(lines, 0),
          genOf_(lines, 0)
    {
    }

    bool
    access(std::uint64_t line_id)
    {
        ++tick_;
        const std::size_t base = (line_id % sets_) * ways_;
        std::size_t victim = base;
        for (unsigned w = 0; w < ways_; ++w) {
            const std::size_t i = base + w;
            if (lines_[i] == line_id && live(i)) {
                lastUse_[i] = tick_;
                ++hits_;
                return true;
            }
            if (!live(i)) {
                victim = i;
                continue;
            }
            if (live(victim) && lastUse_[i] < lastUse_[victim])
                victim = i;
        }
        ++misses_;
        lines_[victim] = line_id;
        lastUse_[victim] = tick_;
        genOf_[victim] = gen_;
        return false;
    }

    bool
    contains(std::uint64_t line_id) const
    {
        const std::size_t base = (line_id % sets_) * ways_;
        for (std::size_t i = base; i < base + ways_; ++i)
            if (lines_[i] == line_id && live(i))
                return true;
        return false;
    }

    void
    invalidatePage(sim::PageId page, unsigned lines_per_page)
    {
        const std::uint64_t first = page * lines_per_page;
        for (std::size_t i = 0; i < lines_.size(); ++i)
            if (lines_[i] - first < lines_per_page && live(i))
                genOf_[i] = 0;
    }

    void flushAll() { ++gen_; }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    bool live(std::size_t i) const { return genOf_[i] == gen_; }

    unsigned sets_;
    unsigned ways_;
    std::vector<std::uint64_t> lines_;
    std::vector<std::uint64_t> lastUse_;
    std::vector<std::uint64_t> genOf_;
    std::uint64_t tick_ = 0;
    std::uint64_t gen_ = 1;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

class DataCacheEquivalence
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(DataCacheEquivalence, MatchesTheWayOrderScan)
{
    // A seeded stream of line accesses, page invalidations (pages of 1
    // to 64 lines, so spans wrap around the set array or cover all of
    // it) and full flushes over a line universe three times the
    // capacity: every hit or miss and both counts must match the scan at
    // every step, and so must the whole cache's contents every 64 steps.
    const auto [lines, ways] = GetParam();
    DataCache cache("c", std::uint64_t{lines} * 64, ways, 64, 1);
    ScanDataCache reference(lines, ways);
    sim::Rng rng(lines * 131 + ways);
    const std::uint64_t universe = 3 * lines;
    const unsigned page_lines[] = {1, 3, 8, 64};
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t op = rng.below(100);
        if (rng.below(8 * lines) == 0) {
            cache.flushAll();
            reference.flushAll();
        } else if (op < 90) {
            const std::uint64_t line = rng.chance(0.5)
                                           ? rng.below(lines / 2 + 1)
                                           : rng.below(universe);
            ASSERT_EQ(cache.access(line), reference.access(line)) << i;
        } else {
            const unsigned lpp = page_lines[rng.below(4)];
            const sim::PageId page = rng.below(universe / lpp + 1);
            cache.invalidatePage(page, lpp);
            reference.invalidatePage(page, lpp);
        }
        ASSERT_EQ(cache.hits(), reference.hits()) << i;
        ASSERT_EQ(cache.misses(), reference.misses()) << i;
        if (i % 64 == 0) {
            for (std::uint64_t line = 0; line < universe; ++line)
                ASSERT_EQ(cache.contains(line), reference.contains(line))
                    << i << " line " << line;
        }
    }
    EXPECT_GT(cache.hits(), 0u);
    EXPECT_GT(cache.misses(), lines);  // sets filled and evicted
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, DataCacheEquivalence,
    ::testing::Values(std::make_tuple(32u, 32u),
                      std::make_tuple(512u, 16u),
                      std::make_tuple(3u, 3u),
                      std::make_tuple(16u, 1u),
                      std::make_tuple(100u, 100u),  // a set over 64 ways
                      std::make_tuple(4096u, 16u)));  // Table I's L2

// ---------------------------------------------------------------- DramManager

TEST(DramManager, UnlimitedCapacityNeverEvicts)
{
    DramManager dram(0);
    for (sim::PageId p = 0; p < 1000; ++p)
        EXPECT_FALSE(dram.insert(p, FrameKind::kOwned).has_value());
    EXPECT_EQ(dram.size(), 1000u);
    EXPECT_EQ(dram.evictions(), 0u);
}

TEST(DramManager, EvictsLruWhenFull)
{
    DramManager dram(2);
    dram.insert(1, FrameKind::kOwned);
    dram.insert(2, FrameKind::kOwned);
    dram.touch(1);  // 2 becomes LRU
    const auto victim = dram.insert(3, FrameKind::kOwned);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->page, 2u);
    EXPECT_TRUE(dram.resident(1));
    EXPECT_TRUE(dram.resident(3));
    EXPECT_EQ(dram.evictions(), 1u);
}

TEST(DramManager, VictimReportsFrameKind)
{
    DramManager dram(1);
    dram.insert(1, FrameKind::kReplica);
    const auto victim = dram.insert(2, FrameKind::kOwned);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->kind, FrameKind::kReplica);
}

TEST(DramManager, ReplicaCounting)
{
    DramManager dram(0);
    dram.insert(1, FrameKind::kReplica);
    dram.insert(2, FrameKind::kOwned);
    EXPECT_EQ(dram.replicaCount(), 1u);
    dram.setKind(1, FrameKind::kOwned);
    EXPECT_EQ(dram.replicaCount(), 0u);
    dram.setKind(2, FrameKind::kReplica);
    EXPECT_EQ(dram.replicaCount(), 1u);
    dram.erase(2);
    EXPECT_EQ(dram.replicaCount(), 0u);
}

TEST(DramManager, EraseFreesFrame)
{
    DramManager dram(1);
    dram.insert(1, FrameKind::kOwned);
    EXPECT_TRUE(dram.erase(1));
    EXPECT_FALSE(dram.erase(1));
    EXPECT_FALSE(dram.insert(2, FrameKind::kOwned).has_value());
}

TEST(DramManager, KindOfResidentPage)
{
    DramManager dram(0);
    dram.insert(9, FrameKind::kReplica);
    EXPECT_EQ(dram.kindOf(9), FrameKind::kReplica);
}

/**
 * DramManager as std::list + std::unordered_map: the layout the
 * index-linked frame LRU replaced, kept as the reference it must match
 * victim for victim.
 */
class ListDramManager
{
  public:
    ListDramManager(std::uint64_t capacity, std::uint64_t pages_per_region)
        : capacity_(capacity), pagesPerRegion_(pages_per_region)
    {
    }

    std::optional<Eviction>
    insert(sim::PageId page, FrameKind kind)
    {
        std::optional<Eviction> victim;
        if (capacity_ != 0 && map_.size() >= capacity_)
            victim = evict();
        lru_.push_front(Eviction{page, kind});
        map_[page] = lru_.begin();
        if (kind == FrameKind::kOwned)
            ++regions_[page / pagesPerRegion_].owned;
        return victim;
    }

    void
    touch(sim::PageId page)
    {
        const auto it = map_.find(page);
        if (it != map_.end())
            lru_.splice(lru_.begin(), lru_, it->second);
    }

    bool
    erase(sim::PageId page)
    {
        const auto it = map_.find(page);
        if (it == map_.end())
            return false;
        if (it->second->kind == FrameKind::kOwned)
            --regions_[page / pagesPerRegion_].owned;
        lru_.erase(it->second);
        map_.erase(it);
        return true;
    }

    void
    setKind(sim::PageId page, FrameKind kind)
    {
        Eviction &frame = *map_.at(page);
        if (frame.kind != kind)
            regions_[page / pagesPerRegion_].owned +=
                kind == FrameKind::kOwned ? 1 : -1;
        frame.kind = kind;
    }

    std::optional<Eviction>
    evictLru()
    {
        if (lru_.empty())
            return std::nullopt;
        return evict();
    }

    void pin(sim::PageId region, bool on) { regions_[region].pinned = on; }

    std::uint64_t
    ownedInRegion(sim::PageId region) const
    {
        const auto it = regions_.find(region);
        return it != regions_.end() ? it->second.owned : 0;
    }

    std::vector<Eviction> frames() const { return {lru_.begin(), lru_.end()}; }
    std::uint64_t evictions() const { return evictions_; }

  private:
    struct Region
    {
        std::uint64_t owned = 0;
        bool pinned = false;
    };

    bool
    pinned(sim::PageId page) const
    {
        const auto it = regions_.find(page / pagesPerRegion_);
        return pagesPerRegion_ > 1 && it != regions_.end() &&
               it->second.pinned;
    }

    Eviction
    evict()
    {
        auto victim = std::prev(lru_.end());
        for (auto it = lru_.end(); it != lru_.begin();) {
            --it;
            if (!pinned(it->page)) {
                victim = it;
                break;
            }
        }
        const Eviction out = *victim;
        if (out.kind == FrameKind::kOwned)
            --regions_[out.page / pagesPerRegion_].owned;
        map_.erase(out.page);
        lru_.erase(victim);
        ++evictions_;
        return out;
    }

    std::uint64_t capacity_;
    std::uint64_t pagesPerRegion_;
    std::list<Eviction> lru_;  // front = MRU
    std::unordered_map<sim::PageId, std::list<Eviction>::iterator> map_;
    std::unordered_map<sim::PageId, Region> regions_;
    std::uint64_t evictions_ = 0;
};

void
expectSameVictim(const std::optional<Eviction> &got,
                 const std::optional<Eviction> &want, int step)
{
    ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
    if (got) {
        EXPECT_EQ(got->page, want->page) << "step " << step;
        EXPECT_EQ(got->kind, want->kind) << "step " << step;
    }
}

void
expectSameFrames(const DramManager &dram, const ListDramManager &reference,
                 int step)
{
    const std::vector<Eviction> got = dram.frames();
    const std::vector<Eviction> want = reference.frames();
    ASSERT_EQ(got.size(), want.size()) << "step " << step;
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].page, want[i].page) << "step " << step;
        ASSERT_EQ(got[i].kind, want[i].kind) << "step " << step;
    }
}

class DramEquivalence
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(DramEquivalence, MatchesTheListLru)
{
    // A seeded stream of allocations, touches, frees, kind flips,
    // forced evictions and region pins: the same victims in the same
    // order, and the same recency order in frames() throughout.
    const auto [capacity, pages_per_region] = GetParam();
    DramManager dram(capacity);
    dram.configureRegions(pages_per_region);
    ListDramManager reference(capacity, pages_per_region);
    sim::Rng rng(capacity * 31 + pages_per_region);
    constexpr sim::PageId kPages = 160;
    for (int step = 0; step < 20000; ++step) {
        const sim::PageId page = rng.below(kPages);
        const std::uint64_t op = rng.below(100);
        if (op < 4) {
            expectSameVictim(dram.evictLru(), reference.evictLru(), step);
        } else if (op < 10 && pages_per_region > 1) {
            const sim::PageId region = page / pages_per_region;
            const bool pin = rng.chance(0.5);
            if (pin)
                dram.pinRegion(region);
            else
                dram.unpinRegion(region);
            reference.pin(region, pin);
        } else if (!dram.resident(page)) {
            const FrameKind kind = rng.chance(0.3) ? FrameKind::kReplica
                                                   : FrameKind::kOwned;
            expectSameVictim(dram.insert(page, kind),
                             reference.insert(page, kind), step);
        } else if (op < 50) {
            dram.touch(page);
            reference.touch(page);
        } else if (op < 75) {
            EXPECT_TRUE(dram.erase(page));
            EXPECT_TRUE(reference.erase(page));
        } else {
            const FrameKind kind = dram.kindOf(page) == FrameKind::kOwned
                                       ? FrameKind::kReplica
                                       : FrameKind::kOwned;
            dram.setKind(page, kind);
            reference.setKind(page, kind);
        }
        if (pages_per_region > 1) {
            const sim::PageId region = page / pages_per_region;
            ASSERT_EQ(dram.ownedInRegion(region),
                      reference.ownedInRegion(region))
                << "step " << step;
        }
        if (step % 97 == 0)
            expectSameFrames(dram, reference, step);
    }
    expectSameFrames(dram, reference, -1);
    EXPECT_EQ(dram.evictions(), reference.evictions());
    if (capacity > 0) {
        EXPECT_GT(dram.evictions(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    CapacitiesAndRegions, DramEquivalence,
    ::testing::Combine(::testing::Values(0u, 1u, 3u, 128u),
                       ::testing::Values(1u, 8u)));

// --------------------------------------------------------- AccessCounterTable

TEST(AccessCounterTable, GroupsAre64KB)
{
    // 16 pages of 4 KB per group (Table I's 64 KB granularity).
    AccessCounterTable counters(16, 256);
    EXPECT_EQ(counters.groupOf(0), 0u);
    EXPECT_EQ(counters.groupOf(15), 0u);
    EXPECT_EQ(counters.groupOf(16), 1u);
    EXPECT_EQ(counters.groupFirstPage(2), 32u);
}

TEST(AccessCounterTable, TriggersAtThresholdAndResets)
{
    AccessCounterTable counters(16, 4);
    EXPECT_FALSE(counters.recordRemoteAccess(0));
    EXPECT_FALSE(counters.recordRemoteAccess(1));
    EXPECT_FALSE(counters.recordRemoteAccess(2));
    EXPECT_TRUE(counters.recordRemoteAccess(3));  // 4th access, same group
    EXPECT_EQ(counters.count(0), 0u);             // reset after trigger
    EXPECT_EQ(counters.triggers(), 1u);
}

TEST(AccessCounterTable, GroupsAreIndependent)
{
    AccessCounterTable counters(16, 4);
    counters.recordRemoteAccess(0);
    counters.recordRemoteAccess(16);
    EXPECT_EQ(counters.count(0), 1u);
    EXPECT_EQ(counters.count(16), 1u);
}

TEST(AccessCounterTable, ClearErasesGroup)
{
    AccessCounterTable counters(16, 4);
    counters.recordRemoteAccess(5);
    counters.clear(5);
    EXPECT_EQ(counters.count(5), 0u);
}

TEST(AccessCounterTable, DefaultThresholdIs256)
{
    AccessCounterTable counters(16, 256);
    for (int i = 0; i < 255; ++i)
        EXPECT_FALSE(counters.recordRemoteAccess(0));
    EXPECT_TRUE(counters.recordRemoteAccess(0));
}

}  // namespace
}  // namespace grit::mem
