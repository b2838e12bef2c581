/** @file Unit tests for the PTE bit layout (paper Fig. 14, Tables IV/V). */

#include <gtest/gtest.h>

#include "mem/page_table.h"
#include "mem/pte.h"

namespace grit::mem {
namespace {

TEST(Pte, DefaultIsAllZero)
{
    Pte pte;
    EXPECT_EQ(pte.raw(), 0u);
    EXPECT_FALSE(pte.valid());
    EXPECT_EQ(pte.scheme(), Scheme::kNone);
    EXPECT_EQ(pte.groupBits(), GroupBits::kPages1);
}

TEST(Pte, ValidBitIsBitZero)
{
    Pte pte;
    pte.setValid(true);
    EXPECT_EQ(pte.raw(), 1u);
    pte.setValid(false);
    EXPECT_EQ(pte.raw(), 0u);
}

TEST(Pte, SchemeBitsOccupyBits9And10)
{
    // Table IV: 01 = on-touch, 10 = access counter, 11 = duplication.
    Pte pte;
    pte.setScheme(Scheme::kOnTouch);
    EXPECT_EQ(pte.raw(), std::uint64_t{1} << 9);
    pte.setScheme(Scheme::kAccessCounter);
    EXPECT_EQ(pte.raw(), std::uint64_t{1} << 10);
    pte.setScheme(Scheme::kDuplication);
    EXPECT_EQ(pte.raw(), (std::uint64_t{0x3} << 9));
    pte.setScheme(Scheme::kNone);
    EXPECT_EQ(pte.raw(), 0u);
}

TEST(Pte, GroupBitsOccupyBits52And53)
{
    Pte pte;
    pte.setGroupBits(GroupBits::kPages8);
    EXPECT_EQ(pte.raw(), std::uint64_t{1} << 52);
    pte.setGroupBits(GroupBits::kPages512);
    EXPECT_EQ(pte.raw(), std::uint64_t{0x3} << 52);
}

TEST(Pte, PfnOccupiesBits12To51)
{
    Pte pte;
    const std::uint64_t pfn = (std::uint64_t{1} << 40) - 1;  // max PFN
    pte.setPfn(pfn);
    EXPECT_EQ(pte.pfn(), pfn);
    EXPECT_EQ(pte.raw(), pfn << 12);
    pte.setPfn(0x1234);
    EXPECT_EQ(pte.pfn(), 0x1234u);
}

TEST(Pte, FieldsAreIndependent)
{
    Pte pte;
    pte.setValid(true);
    pte.setWritable(true);
    pte.setScheme(Scheme::kDuplication);
    pte.setPfn(0xABCDE);
    pte.setGroupBits(GroupBits::kPages64);
    pte.setDirty(true);
    pte.setAccessed(true);

    EXPECT_TRUE(pte.valid());
    EXPECT_TRUE(pte.writable());
    EXPECT_EQ(pte.scheme(), Scheme::kDuplication);
    EXPECT_EQ(pte.pfn(), 0xABCDEu);
    EXPECT_EQ(pte.groupBits(), GroupBits::kPages64);
    EXPECT_TRUE(pte.dirty());
    EXPECT_TRUE(pte.accessed());

    // Clearing one field leaves the others intact.
    pte.setScheme(Scheme::kNone);
    EXPECT_TRUE(pte.valid());
    EXPECT_EQ(pte.pfn(), 0xABCDEu);
    EXPECT_EQ(pte.groupBits(), GroupBits::kPages64);

    // The routing bits touch none of Fig. 14's fields, nor they them.
    pte.setScheme(Scheme::kDuplication);
    pte.setRemote(true);
    pte.setLocation(63);
    pte.setReadOnlyReplica(true);
    EXPECT_TRUE(pte.valid());
    EXPECT_TRUE(pte.writable());
    EXPECT_EQ(pte.scheme(), Scheme::kDuplication);
    EXPECT_EQ(pte.pfn(), 0xABCDEu);
    EXPECT_EQ(pte.groupBits(), GroupBits::kPages64);
    pte.setPfn((std::uint64_t{1} << 40) - 1);
    pte.setGroupBits(GroupBits::kPages512);
    pte.setScheme(Scheme::kNone);
    EXPECT_TRUE(pte.remote());
    EXPECT_EQ(pte.location(), 63);
    EXPECT_TRUE(pte.readOnlyReplica());
    pte.setLocation(sim::kNoGpu);
    pte.setRemote(false);
    pte.setReadOnlyReplica(false);
    EXPECT_EQ(pte.pfn(), (std::uint64_t{1} << 40) - 1);
    EXPECT_EQ(pte.groupBits(), GroupBits::kPages512);
    EXPECT_TRUE(pte.valid());
}

TEST(Pte, RoutingBitsOccupyBits11And54To61)
{
    Pte pte;
    pte.setRemote(true);
    EXPECT_EQ(pte.raw(), std::uint64_t{1} << 11);
    pte.setRemote(false);
    pte.setReadOnlyReplica(true);
    EXPECT_EQ(pte.raw(), std::uint64_t{1} << 61);
    pte.setReadOnlyReplica(false);
    pte.setLocation(0);  // stored as location + 2
    EXPECT_EQ(pte.raw(), std::uint64_t{2} << 54);
    pte.setLocation(Pte::kMaxLocation);
    EXPECT_EQ(pte.raw(), std::uint64_t{0x7F} << 54);
    pte.setLocation(sim::kNoGpu);
    EXPECT_EQ(pte.raw(), 0u);
}

TEST(Pte, RoutingBitsRoundTrip)
{
    for (const sim::GpuId location : {sim::kNoGpu, sim::kHostId, 0, 63}) {
        for (const bool remote : {false, true}) {
            for (const bool read_only : {false, true}) {
                Pte pte;
                pte.setLocation(location);
                pte.setRemote(remote);
                pte.setReadOnlyReplica(read_only);
                const Pte copy(pte.raw());
                EXPECT_EQ(copy.location(), location);
                EXPECT_EQ(copy.remote(), remote);
                EXPECT_EQ(copy.readOnlyReplica(), read_only);
                EXPECT_FALSE(copy.valid());
                EXPECT_EQ(copy.scheme(), Scheme::kNone);
            }
        }
    }
}

TEST(PteRecord, DefaultIsRawZeroAndUnrouted)
{
    const PteRecord rec;
    EXPECT_EQ(rec.pte.raw(), 0u);
    EXPECT_EQ(rec.location(), sim::kNoGpu);
    EXPECT_EQ(rec.kind(), MappingKind::kLocal);
    EXPECT_FALSE(rec.readOnlyReplica());
}

TEST(Pte, RawRoundTrip)
{
    Pte a;
    a.setValid(true);
    a.setScheme(Scheme::kAccessCounter);
    a.setPfn(77);
    Pte b(a.raw());
    EXPECT_EQ(a, b);
    EXPECT_EQ(b.scheme(), Scheme::kAccessCounter);
}

TEST(GroupBits, TableVMapping)
{
    EXPECT_EQ(groupPages(GroupBits::kPages1), 1u);
    EXPECT_EQ(groupPages(GroupBits::kPages8), 8u);
    EXPECT_EQ(groupPages(GroupBits::kPages64), 64u);
    EXPECT_EQ(groupPages(GroupBits::kPages512), 512u);

    EXPECT_EQ(groupBitsFor(1), GroupBits::kPages1);
    EXPECT_EQ(groupBitsFor(8), GroupBits::kPages8);
    EXPECT_EQ(groupBitsFor(64), GroupBits::kPages64);
    EXPECT_EQ(groupBitsFor(512), GroupBits::kPages512);
}

TEST(SchemeName, PrintableNames)
{
    EXPECT_STREQ(schemeName(Scheme::kNone), "none");
    EXPECT_STREQ(schemeName(Scheme::kOnTouch), "on-touch");
    EXPECT_STREQ(schemeName(Scheme::kAccessCounter), "access-counter");
    EXPECT_STREQ(schemeName(Scheme::kDuplication), "duplication");
}

TEST(GroupBase, PaperFormula)
{
    // VPN_base = VPN - (VPN % GroupSize), Section V-D.
    EXPECT_EQ(groupBase(0, 8), 0u);
    EXPECT_EQ(groupBase(7, 8), 0u);
    EXPECT_EQ(groupBase(8, 8), 8u);
    EXPECT_EQ(groupBase(515, 512), 512u);
    EXPECT_EQ(groupBase(1000, 64), 960u);
}

/** Property sweep: scheme/group round-trips over every combination. */
class PteRoundTrip
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(PteRoundTrip, SchemeAndGroupSurviveTogether)
{
    const auto [scheme_raw, group_raw] = GetParam();
    Pte pte;
    pte.setValid(true);
    pte.setPfn(0xFFFFFFFFFFull);
    pte.setScheme(static_cast<Scheme>(scheme_raw));
    pte.setGroupBits(static_cast<GroupBits>(group_raw));
    EXPECT_EQ(pte.scheme(), static_cast<Scheme>(scheme_raw));
    EXPECT_EQ(pte.groupBits(), static_cast<GroupBits>(group_raw));
    EXPECT_EQ(pte.pfn(), 0xFFFFFFFFFFull);
    EXPECT_TRUE(pte.valid());
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, PteRoundTrip,
    ::testing::Combine(::testing::Values(0u, 1u, 2u, 3u),
                       ::testing::Values(0u, 1u, 2u, 3u)));

}  // namespace
}  // namespace grit::mem
