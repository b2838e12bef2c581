/** @file Unit tests for the GPU model: translation path, flushes, GMMU,
 *  and remote/fault slots. */

#include <gtest/gtest.h>

#include "gpu/gmmu.h"
#include "gpu/gpu.h"
#include "mem/page_geometry.h"

namespace grit::gpu {
namespace {

GpuConfig
smallConfig()
{
    GpuConfig config;
    config.lanes = 2;
    return config;
}

/** Default 4 KB geometry; static so constructed Gpus may keep the ref. */
const mem::PageGeometry &
testGeometry()
{
    static const mem::PageGeometry geo{};
    return geo;
}

TEST(Gmmu, ColdWalkCostsFourLevels)
{
    Gmmu gmmu;
    const WalkResult walk = gmmu.walk(100, 0);
    EXPECT_EQ(walk.accesses, 4u);
    EXPECT_EQ(walk.completion, 400u);  // 4 levels x 100 cycles
}

TEST(Gmmu, WarmWalkHitsWalkCache)
{
    Gmmu gmmu;
    gmmu.walk(100, 0);
    const WalkResult walk = gmmu.walk(100, 1000);
    EXPECT_EQ(walk.accesses, 1u);
    EXPECT_EQ(walk.completion, 1100u);
}

TEST(Gmmu, WalkersParallelUpToEight)
{
    Gmmu gmmu;
    sim::Cycle last = 0;
    for (unsigned i = 0; i < 9; ++i) {
        // Distinct top-level regions: all cold walks.
        const sim::PageId page = static_cast<sim::PageId>(i) << 27;
        last = std::max(last, gmmu.walk(page, 0).completion);
    }
    // Nine 400-cycle walks over eight walkers: the ninth queues.
    EXPECT_EQ(last, 800u);
    EXPECT_EQ(gmmu.walks(), 9u);
}

TEST(Gpu, TranslateFaultsOnUnmappedPage)
{
    Gpu gpu(0, smallConfig(), testGeometry());
    const TranslateOutcome out = gpu.translate(0, 42, false, 0);
    EXPECT_TRUE(out.fault);
    EXPECT_FALSE(out.protectionFault);
    EXPECT_GT(out.walkCycles, 0u);  // walked before faulting
}

TEST(Gpu, TranslateHitsAfterInstallAndFill)
{
    Gpu gpu(0, smallConfig(), testGeometry());
    gpu.pageTable().install(42, mem::MappingKind::kLocal, 0, true);
    TranslateOutcome out = gpu.translate(0, 42, false, 0);
    EXPECT_FALSE(out.fault);
    ASSERT_NE(out.rec, nullptr);
    EXPECT_EQ(out.rec->location(), 0);
    const sim::Cycle walked = out.readyAt;

    // Second access: L1 TLB hit, much faster.
    out = gpu.translate(0, 42, false, 1000);
    EXPECT_FALSE(out.fault);
    EXPECT_EQ(out.walkCycles, 0u);
    EXPECT_LT(out.readyAt - 1000, walked);
}

TEST(Gpu, WriteToReadOnlyReplicaRaisesProtectionFault)
{
    Gpu gpu(0, smallConfig(), testGeometry());
    gpu.pageTable().install(7, mem::MappingKind::kLocal, 0,
                            /*writable=*/false,
                            /*read_only_replica=*/true);
    const TranslateOutcome read = gpu.translate(0, 7, false, 0);
    EXPECT_FALSE(read.fault);
    EXPECT_FALSE(read.protectionFault);
    const TranslateOutcome write = gpu.translate(0, 7, true, 0);
    EXPECT_TRUE(write.protectionFault);
    EXPECT_FALSE(write.fault);
}

TEST(Gpu, InvalidatedPageFaultsAgain)
{
    Gpu gpu(0, smallConfig(), testGeometry());
    gpu.pageTable().install(9, mem::MappingKind::kLocal, 0, true);
    gpu.translate(0, 9, false, 0);  // fills TLBs
    gpu.pageTable().invalidate(9);
    gpu.invalidatePage(9);
    const TranslateOutcome out = gpu.translate(0, 9, false, 100);
    EXPECT_TRUE(out.fault);
}

TEST(Gpu, FlushForInvalidationWipesTlbsAndCosts)
{
    GpuConfig config = smallConfig();
    Gpu gpu(0, config, testGeometry());
    gpu.pageTable().install(3, mem::MappingKind::kLocal, 0, true);
    gpu.translate(0, 3, false, 0);

    const sim::Cycle done = gpu.flushForInvalidation(1000, 1500);
    EXPECT_EQ(done, 2500u);
    EXPECT_EQ(gpu.flushes(), 1u);

    // Next translation misses the TLBs and re-walks (PTE still valid).
    const TranslateOutcome out = gpu.translate(0, 3, false, 3000);
    EXPECT_FALSE(out.fault);
    EXPECT_GT(out.walkCycles, 0u);
}

/** True when lane @p lane's L1 TLB holds a live entry for @p key. */
bool
l1Holds(const Gpu &gpu, unsigned lane, sim::PageId key)
{
    return gpu.l1Tlbs()[lane].holds(key);
}

TEST(Gpu, HolderFilterIsExactAndBoundedUpTo64Lanes)
{
    // With one filter bit per lane, a displaced key loses its lane's
    // bit, so the filter never outgrows what the L1 TLBs hold.
    GpuConfig config;
    config.lanes = 4;
    Gpu gpu(0, config, testGeometry());
    ASSERT_TRUE(gpu.exactHolders());
    for (sim::PageId page = 0; page < 4000; ++page)
        gpu.fillTlbs(static_cast<unsigned>(page % 4), page);
    EXPECT_LE(gpu.l1Holders().size(),
              std::size_t{config.lanes} * kL1TlbEntries);
    for (const auto &[key, mask] : gpu.l1Holders()) {
        ASSERT_NE(mask, 0u);
        for (unsigned lane = 0; lane < config.lanes; ++lane)
            EXPECT_EQ(((mask >> lane) & 1) != 0, l1Holds(gpu, lane, key))
                << "key " << key << " lane " << lane;
    }
}

TEST(Gpu, HolderFilterKeepsTheBitWhileASecondCopyLives)
{
    // Lane 0 refills key 7 into a dead slot ahead of its live copy,
    // then displaces the older copy: the lane still holds 7, so the
    // shootdown must still reach it.
    Gpu gpu(0, smallConfig(), testGeometry());
    gpu.fillTlbs(0, 1);
    gpu.fillTlbs(0, 7);
    gpu.invalidatePage(1);
    gpu.fillTlbs(0, 7);  // second copy, in the dead slot
    for (sim::PageId page = 100; page < 100 + kL1TlbEntries - 1; ++page)
        gpu.fillTlbs(0, page);  // the last fill displaces the older copy
    ASSERT_TRUE(l1Holds(gpu, 0, 7));
    const std::uint64_t *mask = gpu.l1Holders().find(7);
    ASSERT_NE(mask, nullptr);
    EXPECT_EQ(*mask, 1u);

    gpu.invalidatePage(7);
    EXPECT_FALSE(l1Holds(gpu, 0, 7));
}

TEST(Gpu, InvalidateReachesEveryLaneWhenFilterBitsAlias)
{
    // 96 lanes share 64 bits: lanes 5 and 69 alias. Lane 5 displacing
    // the page must not hide lane 69's copy from the shootdown.
    GpuConfig config;
    config.lanes = 96;
    Gpu gpu(0, config, testGeometry());
    ASSERT_FALSE(gpu.exactHolders());
    constexpr sim::PageId kPage = 1000;
    gpu.fillTlbs(69, kPage);
    gpu.fillTlbs(5, kPage);
    for (sim::PageId page = 0; page < kL1TlbEntries; ++page)
        gpu.fillTlbs(5, page);  // pushes kPage out of lane 5
    ASSERT_FALSE(l1Holds(gpu, 5, kPage));
    ASSERT_TRUE(l1Holds(gpu, 69, kPage));

    gpu.invalidatePage(kPage);
    for (unsigned lane = 0; lane < config.lanes; ++lane)
        EXPECT_FALSE(l1Holds(gpu, lane, kPage)) << "lane " << lane;
    EXPECT_EQ(gpu.l1Holders().find(kPage), nullptr);
}

TEST(Gpu, DramAccessAddsLatency)
{
    Gpu gpu(0, smallConfig(), testGeometry());
    const sim::Cycle done = gpu.dramAccess(0, 64);
    EXPECT_GE(done, kDramLatency);
}

TEST(Gpu, RemoteSlotsThrottleThroughput)
{
    GpuConfig config = smallConfig();
    config.nvlinkSlots = 2;
    Gpu gpu(0, config, testGeometry());
    EXPECT_EQ(gpu.remoteSlot(0, 100, false), 100u);
    EXPECT_EQ(gpu.remoteSlot(0, 100, false), 100u);
    EXPECT_EQ(gpu.remoteSlot(0, 100, false), 200u);  // queues
}

TEST(Gpu, PcieAndNvlinkSlotsAreSeparate)
{
    GpuConfig config = smallConfig();
    config.nvlinkSlots = 1;
    config.pcieSlots = 1;
    Gpu gpu(0, config, testGeometry());
    gpu.remoteSlot(0, 100, /*to_host=*/false);
    // The PCIe pool is untouched by NVLink occupancy.
    EXPECT_EQ(gpu.remoteSlot(0, 100, /*to_host=*/true), 100u);
}

TEST(Gpu, FaultSlotsThrottleFaultStorms)
{
    GpuConfig config = smallConfig();
    config.faultSlots = 2;
    Gpu gpu(0, config, testGeometry());
    gpu.faultSlot(0, 1000);
    gpu.faultSlot(0, 1000);
    EXPECT_EQ(gpu.faultSlot(0, 1000), 2000u);
}

TEST(Gpu, LinesPerPageFollowsGeometry)
{
    const GpuConfig config = smallConfig();
    EXPECT_EQ(Gpu(0, config, testGeometry()).linesPerPage(), 64u);
    static const mem::PageGeometry huge_base{2 * 1024 * 1024};
    EXPECT_EQ(Gpu(1, config, huge_base).linesPerPage(), 32768u);
}

}  // namespace
}  // namespace grit::gpu
