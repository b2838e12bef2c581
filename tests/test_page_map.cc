/** @file Tests for sim::PageMap, the page-indexed storage behind the
 *  page tables, the replica directory, the PA-Table, the DRAM frame
 *  index and the fault coalescer: map semantics against std::map,
 *  pointer stability, deterministic iteration, and sparse keys. */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mem/page_geometry.h"
#include "simcore/page_map.h"
#include "simcore/rng.h"

namespace grit::sim {
namespace {

using Keys = std::vector<std::uint64_t>;

/** Every (key, value) in iteration order. */
template <typename V>
std::vector<std::pair<std::uint64_t, V>>
contents(const PageMap<V> &map)
{
    std::vector<std::pair<std::uint64_t, V>> out;
    for (const auto &[key, value] : map)
        out.emplace_back(key, value);
    return out;
}

TEST(PageMap, InsertFindEraseBasics)
{
    PageMap<int> map;
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.find(7), nullptr);
    EXPECT_FALSE(map.contains(7));
    EXPECT_FALSE(map.erase(7));

    map[7] = 42;
    ASSERT_NE(map.find(7), nullptr);
    EXPECT_EQ(*map.find(7), 42);
    EXPECT_TRUE(map.contains(7));
    EXPECT_FALSE(map.contains(6));  // same leaf, not present
    EXPECT_EQ(map.size(), 1u);

    map[7] = 43;
    EXPECT_EQ(*map.find(7), 43);
    EXPECT_EQ(map.size(), 1u);  // overwrite, not duplicate

    EXPECT_TRUE(map.erase(7));
    EXPECT_EQ(map.find(7), nullptr);
    EXPECT_TRUE(map.empty());
}

TEST(PageMap, PresentDefaultValueIsDistinctFromAbsent)
{
    PageMap<int> map;
    map[3];  // present with the default value
    ASSERT_NE(map.find(3), nullptr);
    EXPECT_EQ(*map.find(3), 0);
    EXPECT_EQ(map.size(), 1u);
    EXPECT_EQ(map.find(4), nullptr);
}

TEST(PageMap, EraseResetsTheValue)
{
    // An erased slot must come back default-constructed, and
    // value-owned memory must be released at the erase.
    PageMap<std::vector<int>> map;
    map[10].assign(1000, 5);
    ASSERT_TRUE(map.erase(10));
    EXPECT_TRUE(map[10].empty());
    EXPECT_EQ(map.size(), 1u);
}

TEST(PageMap, MatchesStdMapUnderSeededOps)
{
    // Model-based: a seeded stream of lookups, inserts, overwrites,
    // erases and the odd clear over a key space that spans several
    // leaves, some sparse.
    PageMap<std::uint64_t> map;
    std::map<std::uint64_t, std::uint64_t> reference;
    Rng rng(11);
    for (int i = 0; i < 200000; ++i) {
        const std::uint64_t base = rng.below(4) * (std::uint64_t{1} << 40);
        const std::uint64_t key = base + rng.below(3000);
        const std::uint64_t op = rng.below(100);
        if (op < 30) {
            map[key] = static_cast<std::uint64_t>(i);
            reference[key] = static_cast<std::uint64_t>(i);
        } else if (op < 40) {
            // operator[] on a maybe-absent key default-constructs.
            EXPECT_EQ(map[key], reference[key]) << key;
        } else if (op < 60) {
            EXPECT_EQ(map.erase(key), reference.erase(key) > 0) << key;
        } else if (op == 99 && rng.below(50) == 0) {
            map.clear();
            reference.clear();
            EXPECT_EQ(map.leafCount(), 0u);
        } else {
            const std::uint64_t *v = map.find(key);
            const auto it = reference.find(key);
            ASSERT_EQ(v != nullptr, it != reference.end()) << key;
            if (v != nullptr) {
                EXPECT_EQ(*v, it->second) << key;
            }
            EXPECT_EQ(map.contains(key), v != nullptr);
        }
        ASSERT_EQ(map.size(), reference.size());
    }
    // Iteration visits exactly the model's entries, each once.
    std::map<std::uint64_t, std::uint64_t> seen;
    for (const auto &[key, value] : map)
        EXPECT_TRUE(seen.emplace(key, value).second) << key;
    EXPECT_EQ(seen, reference);
}

TEST(PageMap, PointersStayValidAcrossLeafCreationAndErase)
{
    PageMap<std::string> map;
    map[5] = "five";
    std::string *five = map.find(5);
    const std::string *five_const =
        static_cast<const PageMap<std::string> &>(map).find(5);
    EXPECT_EQ(five, five_const);
    // Hundreds of new leaves, then erases around the held entry.
    for (std::uint64_t leaf = 1; leaf < 400; ++leaf)
        map[leaf * PageMap<std::string>::kLeafPages + 3] = std::string("x");
    for (std::uint64_t k = 0; k < 20; ++k)
        if (k != 5)
            map[k] = "y";
    for (std::uint64_t k = 0; k < 20; ++k)
        if (k != 5)
            map.erase(k);
    EXPECT_EQ(map.find(5), five);
    EXPECT_EQ(*five, "five");
    EXPECT_EQ(&map[5], five);
}

TEST(PageMap, IteratesInLeafCreationOrderThenPageOrder)
{
    PageMap<int> map;
    constexpr std::uint64_t kLeaf = PageMap<int>::kLeafPages;
    // Leaves created in the order 3, 0, 7; pages inserted out of order.
    map[3 * kLeaf + 9] = 1;
    map[3 * kLeaf + 2] = 2;
    map[5] = 3;
    map[7 * kLeaf + 511] = 4;
    map[1] = 5;
    map[3 * kLeaf + 64] = 6;
    map[7 * kLeaf] = 7;
    const Keys expected = {3 * kLeaf + 2, 3 * kLeaf + 9, 3 * kLeaf + 64,
                           1,             5,             7 * kLeaf,
                           7 * kLeaf + 511};
    Keys got;
    for (const auto &[key, value] : map)
        got.push_back(key);
    EXPECT_EQ(got, expected);

    // An emptied leaf keeps its place: re-filling it does not move it
    // to the end.
    map.erase(1);
    map.erase(5);
    map[0] = 8;
    got.clear();
    for (const auto &[key, value] : map)
        got.push_back(key);
    EXPECT_EQ(got[3], 0u);
    EXPECT_EQ(map.leafCount(), 3u);
}

TEST(PageMap, IterationIsAPureFunctionOfTheOperationSequence)
{
    auto build = [] {
        auto map = std::make_unique<PageMap<int>>();
        Rng rng(5);
        for (int i = 0; i < 5000; ++i) {
            const std::uint64_t key = rng.below(1 << 14);
            if (rng.below(3) == 0)
                map->erase(key);
            else
                (*map)[key] = i;
        }
        return map;
    };
    const auto a = build();
    const auto b = build();
    EXPECT_EQ(contents(*a), contents(*b));
}

TEST(PageMap, SparseKeysIncludingHighBitsAndHugeKeys)
{
    // Keys far apart (one leaf each), at and above 2^52 (the fault
    // coalescer's GPU-major keys), and TLB huge keys (bit 62).
    const Keys keys = {0,
                       PageMap<int>::kLeafPages - 1,
                       std::uint64_t{1} << 32,
                       (std::uint64_t{1} << 52) - 1,
                       std::uint64_t{1} << 52,
                       (std::uint64_t{3} << 52) | 12345,
                       mem::hugeKey(0),
                       mem::hugeKey(1000),
                       ~std::uint64_t{0}};
    PageMap<int> map;
    for (std::size_t i = 0; i < keys.size(); ++i)
        map[keys[i]] = static_cast<int>(i);
    EXPECT_EQ(map.size(), keys.size());
    EXPECT_EQ(map.leafCount(), keys.size() - 1);  // 0 and 511 share one
    for (std::size_t i = 0; i < keys.size(); ++i) {
        ASSERT_NE(map.find(keys[i]), nullptr) << keys[i];
        EXPECT_EQ(*map.find(keys[i]), static_cast<int>(i));
        // Neighbours of a present key stay absent.
        EXPECT_FALSE(map.contains(keys[i] ^ 2));
    }
    EXPECT_FALSE(map.contains(mem::hugeKey(1001)));
    EXPECT_FALSE(map.contains(1000));  // base page 1000 is not its huge key

    Keys got;
    for (const auto &[key, value] : map)
        got.push_back(key);
    EXPECT_EQ(got, keys);  // creation order is key order here
}

TEST(PageMap, ClearReleasesEverything)
{
    PageMap<int> map;
    for (std::uint64_t k = 0; k < 5000; k += 7)
        map[k] = 1;
    map.clear();
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.leafCount(), 0u);
    EXPECT_EQ(map.find(7), nullptr);
    EXPECT_EQ(map.begin(), map.end());
    map[7] = 6;  // usable after clear
    EXPECT_EQ(*map.find(7), 6);
}

}  // namespace
}  // namespace grit::sim
