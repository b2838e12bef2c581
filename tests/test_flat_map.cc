/** @file Tests for sim::FlatMap, the open-addressing table behind the
 *  simulator's hot-path maps: lookup/insert/erase semantics, tombstone
 *  reuse, rehash survival, pointer stability, and the deterministic
 *  iteration order the audit and JSON layers rely on. */

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "simcore/flat_map.h"
#include "simcore/rng.h"

namespace grit::sim {
namespace {

TEST(FlatMap, InsertFindEraseBasics)
{
    FlatMap<std::uint64_t, int> map;
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.find(7), nullptr);
    EXPECT_FALSE(map.erase(7));

    map[7] = 42;
    ASSERT_NE(map.find(7), nullptr);
    EXPECT_EQ(*map.find(7), 42);
    EXPECT_TRUE(map.contains(7));
    EXPECT_EQ(map.size(), 1u);

    map.insertOrAssign(7, 43);
    EXPECT_EQ(*map.find(7), 43);
    EXPECT_EQ(map.size(), 1u);  // overwrite, not duplicate

    EXPECT_TRUE(map.erase(7));
    EXPECT_EQ(map.find(7), nullptr);
    EXPECT_TRUE(map.empty());
}

TEST(FlatMap, OperatorBracketDefaultConstructs)
{
    FlatMap<int, std::vector<int>> map;
    EXPECT_TRUE(map[5].empty());  // created on first touch
    map[5].push_back(1);
    EXPECT_EQ(map[5].size(), 1u);
    EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMap, TombstonesAreRecycled)
{
    // The PA-Table lifecycle: insert until a threshold, then erase.
    // Cycling a bounded working set through insert/erase many times
    // must not grow live size, and erased keys must stay gone.
    FlatMap<std::uint64_t, int> map;
    for (int round = 0; round < 200; ++round) {
        for (std::uint64_t k = 0; k < 64; ++k)
            map[k] = round;
        for (std::uint64_t k = 0; k < 64; ++k)
            EXPECT_TRUE(map.erase(k));
    }
    EXPECT_TRUE(map.empty());
    for (std::uint64_t k = 0; k < 64; ++k)
        EXPECT_EQ(map.find(k), nullptr);

    // A tombstoned slot is reusable: reinsert after the churn works.
    map[3] = 1234;
    ASSERT_NE(map.find(3), nullptr);
    EXPECT_EQ(*map.find(3), 1234);
}

TEST(FlatMap, SurvivesRehashGrowth)
{
    FlatMap<std::uint64_t, std::uint64_t> map;
    constexpr std::uint64_t kN = 10000;  // forces many doublings
    for (std::uint64_t k = 0; k < kN; ++k)
        map[k * 977] = k;
    ASSERT_EQ(map.size(), kN);
    for (std::uint64_t k = 0; k < kN; ++k) {
        const std::uint64_t *v = map.find(k * 977);
        ASSERT_NE(v, nullptr) << k;
        EXPECT_EQ(*v, k);
    }
    EXPECT_EQ(map.find(1), nullptr);  // 1 is not a multiple of 977
}

TEST(FlatMap, PointersStayValidAcrossRehashAndErase)
{
    // The GMMU holds PageInfo& across directory inserts; the contract
    // is chunked never-relocating cells.
    FlatMap<std::uint64_t, std::string> map;
    map[1] = "one";
    const std::string *pinned = map.find(1);
    ASSERT_NE(pinned, nullptr);

    for (std::uint64_t k = 2; k < 5000; ++k)
        map[k] = "x";  // multiple rehashes
    for (std::uint64_t k = 2; k < 2500; ++k)
        map.erase(k);

    EXPECT_EQ(map.find(1), pinned);  // same cell, same address
    EXPECT_EQ(*pinned, "one");
}

TEST(FlatMap, IterationIsInsertionOrderWithoutErases)
{
    FlatMap<std::uint64_t, int> map;
    const std::vector<std::uint64_t> keys = {42, 7, 1000000007ull, 3, 99};
    for (std::size_t i = 0; i < keys.size(); ++i)
        map[keys[i]] = static_cast<int>(i);

    std::vector<std::uint64_t> seen;
    for (const auto &[k, v] : map)
        seen.push_back(k);
    EXPECT_EQ(seen, keys);
}

TEST(FlatMap, IterationIsAPureFunctionOfTheOperationSequence)
{
    // Two maps fed the identical randomized operation sequence must
    // iterate identically — the determinism contract audits and JSON
    // exports depend on (std::unordered_map does not give this).
    auto build = [] {
        auto map = std::make_unique<FlatMap<std::uint64_t, int>>();
        Rng rng(2024);
        for (int i = 0; i < 5000; ++i) {
            const std::uint64_t key = rng.next() % 512;
            if (rng.next() % 3 == 0)
                map->erase(key);
            else
                (*map)[key] = i;
        }
        return map;
    };
    const auto a = build();
    const auto b = build();

    auto ia = a->begin();
    auto ib = b->begin();
    for (; ia != a->end() && ib != b->end(); ++ia, ++ib) {
        EXPECT_EQ(ia->first, ib->first);
        EXPECT_EQ(ia->second, ib->second);
    }
    EXPECT_EQ(ia == a->end(), ib == b->end());
}

TEST(FlatMap, MatchesUnorderedMapUnderRandomChurn)
{
    // Model-based check against std::unordered_map over a mixed
    // insert/overwrite/erase/lookup workload.
    FlatMap<std::uint64_t, int> map;
    std::unordered_map<std::uint64_t, int> reference;
    Rng rng(7);
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t key = rng.next() % 2048;
        switch (rng.next() % 4) {
        case 0:
            map[key] = i;
            reference[key] = i;
            break;
        case 1:
            map.insertOrAssign(key, -i);
            reference[key] = -i;
            break;
        case 2:
            EXPECT_EQ(map.erase(key), reference.erase(key) > 0);
            break;
        default: {
            const int *v = map.find(key);
            const auto it = reference.find(key);
            ASSERT_EQ(v != nullptr, it != reference.end()) << key;
            if (v != nullptr) {
                EXPECT_EQ(*v, it->second);
            }
        }
        }
        ASSERT_EQ(map.size(), reference.size());
    }
    for (const auto &[k, v] : map) {
        const auto it = reference.find(k);
        ASSERT_NE(it, reference.end()) << k;
        EXPECT_EQ(v, it->second);
    }
}

TEST(FlatMap, ChurnKeepsTheSlotIndexBounded)
{
    // A fixed live set under insert/erase churn (the walk-cache index,
    // the TLB holder filter): tombstones alone must not keep doubling
    // the slot index. 2048 live keys need at most 8192 slots at a live
    // load of one half; doubling on tombstones reached 2^20.
    constexpr std::uint64_t kLive = 2048;
    FlatMap<std::uint64_t, std::uint64_t> map;
    for (std::uint64_t k = 0; k < kLive; ++k)
        map[k] = k;
    for (std::uint64_t k = kLive; k < kLive + 2'000'000; ++k) {
        map[k] = k;
        ASSERT_TRUE(map.erase(k - kLive));
    }
    EXPECT_EQ(map.size(), kLive);
    EXPECT_LE(map.slotCount(), 4 * kLive);
    for (std::uint64_t k = 2'000'000; k < 2'000'000 + kLive; ++k) {
        const std::uint64_t *v = map.find(k);
        ASSERT_NE(v, nullptr) << k;
        EXPECT_EQ(*v, k);
    }
}

TEST(FlatMap, ClearReleasesEverything)
{
    FlatMap<std::uint64_t, int> map;
    for (std::uint64_t k = 0; k < 100; ++k)
        map[k] = 1;
    map.clear();
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.find(5), nullptr);
    map[5] = 6;  // usable after clear
    EXPECT_EQ(*map.find(5), 6);
}

TEST(FlatMap, ReserveAvoidsNothingButStaysCorrect)
{
    FlatMap<std::uint64_t, int> map;
    map.reserve(5000);
    for (std::uint64_t k = 0; k < 5000; ++k)
        map[k] = static_cast<int>(k);
    for (std::uint64_t k = 0; k < 5000; ++k)
        ASSERT_EQ(*map.find(k), static_cast<int>(k));
}

}  // namespace
}  // namespace grit::sim
