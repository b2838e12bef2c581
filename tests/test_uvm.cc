/** @file Unit tests for the UVM driver: fault handling, migration,
 *  duplication, write collapse, evictions, and coalescing. */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "simcore/page_map.h"
#include "test_util.h"
#include "uvm/fault.h"
#include "uvm/replica_directory.h"

namespace grit::uvm {
namespace {

using test::MiniSystem;

// -------------------------------------------------------------- FaultCoalescer

TEST(FaultCoalescer, CoalescesWhileInFlight)
{
    FaultCoalescer c;
    EXPECT_EQ(c.inflight(0, 5, 10), sim::kCycleMax);
    c.record(0, 5, 100);
    EXPECT_EQ(c.inflight(0, 5, 50), 100u);
    EXPECT_EQ(c.coalesced(), 1u);
}

TEST(FaultCoalescer, ExpiresAfterCompletion)
{
    FaultCoalescer c;
    c.record(0, 5, 100);
    EXPECT_EQ(c.inflight(0, 5, 100), sim::kCycleMax);
    EXPECT_EQ(c.coalesced(), 0u);
}

TEST(FaultCoalescer, DistinctGpusAndPagesAreIndependent)
{
    FaultCoalescer c;
    c.record(0, 5, 100);
    EXPECT_EQ(c.inflight(1, 5, 10), sim::kCycleMax);
    EXPECT_EQ(c.inflight(0, 6, 10), sim::kCycleMax);
}

// ------------------------------------------------------------ ReplicaDirectory

TEST(ReplicaDirectory, DefaultsToUntouchedHostPage)
{
    ReplicaDirectory dir;
    EXPECT_EQ(dir.ownerOf(7), sim::kHostId);
    EXPECT_FALSE(dir.touched(7));
    EXPECT_EQ(dir.find(7), nullptr);
}

TEST(ReplicaDirectory, TracksReplicasAndMappersUniquely)
{
    ReplicaDirectory dir;
    PageInfo &info = dir.info(1);
    info.addReplica(2);
    info.addReplica(2);
    info.addRemoteMapper(3);
    info.addRemoteMapper(3);
    EXPECT_EQ(info.replicas().size(), 1u);
    EXPECT_EQ(info.remoteMappers().size(), 1u);
    EXPECT_TRUE(info.hasReplica(2));
    EXPECT_TRUE(info.hasRemoteMapper(3));
    info.removeReplica(2);
    info.removeRemoteMapper(3);
    EXPECT_FALSE(info.hasReplica(2));
    EXPECT_FALSE(info.hasRemoteMapper(3));
}

std::vector<sim::GpuId>
ids(PageInfo::GpuList xs)
{
    return {xs.begin(), xs.end()};
}

using Ids = std::vector<sim::GpuId>;

TEST(PageInfo, ListsKeepInsertionOrderAcrossAddsAndRemoves)
{
    PageInfo info;
    info.addReplica(3);
    info.addRemoteMapper(5);
    info.addReplica(1);
    info.addRemoteMapper(0);
    info.addReplica(2);
    info.addRemoteMapper(7);
    EXPECT_EQ(ids(info.replicas()), (Ids{3, 1, 2}));
    EXPECT_EQ(ids(info.remoteMappers()), (Ids{5, 0, 7}));

    info.removeReplica(1);
    info.removeRemoteMapper(5);
    info.addReplica(6);
    info.addRemoteMapper(4);
    info.removeReplica(9);  // absent: no change
    EXPECT_EQ(ids(info.replicas()), (Ids{3, 2, 6}));
    EXPECT_EQ(ids(info.remoteMappers()), (Ids{0, 7, 4}));
    EXPECT_EQ(info.replicas().front(), 3);
}

TEST(PageInfo, ClearingOneListKeepsTheOther)
{
    PageInfo info;
    info.addReplica(1);
    info.addReplica(2);
    info.addRemoteMapper(3);
    info.addRemoteMapper(0);
    info.clearReplicas();
    EXPECT_TRUE(info.replicas().empty());
    EXPECT_EQ(ids(info.remoteMappers()), (Ids{3, 0}));

    info.addReplica(2);
    info.clearRemoteMappers();
    EXPECT_EQ(ids(info.replicas()), (Ids{2}));
    EXPECT_TRUE(info.remoteMappers().empty());
}

/** A 64-GPU page: every even GPU a replica, every odd one a mapper. */
void
shareWithAllGpus(PageInfo &info, Ids &replicas, Ids &mappers)
{
    for (sim::GpuId g = 0; g < 64; g += 2) {
        const sim::GpuId replica = 62 - g;  // descending, to test order
        const sim::GpuId mapper = g + 1;
        info.addReplica(replica);
        info.addRemoteMapper(mapper);
        replicas.push_back(replica);
        mappers.push_back(mapper);
    }
}

TEST(PageInfo, SixtyFourSharersSpillAndKeepTheirOrder)
{
    PageInfo info;
    info.setOwner(63);
    info.setTouched(true);
    info.setDirty(true);
    Ids replicas, mappers;
    shareWithAllGpus(info, replicas, mappers);
    EXPECT_EQ(ids(info.replicas()), replicas);
    EXPECT_EQ(ids(info.remoteMappers()), mappers);
    EXPECT_EQ(info.owner(), 63);
    EXPECT_TRUE(info.touched());
    EXPECT_TRUE(info.dirty());

    // Removes and re-adds on the spilled block keep both orders.
    info.removeReplica(62);
    info.removeRemoteMapper(33);
    info.addReplica(62);
    replicas.erase(replicas.begin());
    replicas.push_back(62);
    mappers.erase(std::find(mappers.begin(), mappers.end(), 33));
    EXPECT_EQ(ids(info.replicas()), replicas);
    EXPECT_EQ(ids(info.remoteMappers()), mappers);
    EXPECT_TRUE(info.hasReplica(0));
    EXPECT_FALSE(info.hasRemoteMapper(33));

    info.clearReplicas();
    EXPECT_TRUE(info.replicas().empty());
    EXPECT_EQ(ids(info.remoteMappers()), mappers);
}

TEST(PageInfo, MovedRecordKeepsItsSharers)
{
    for (const bool spill : {false, true}) {
        PageInfo info;
        info.setOwner(1);
        Ids replicas, mappers;
        if (spill) {
            shareWithAllGpus(info, replicas, mappers);
        } else {
            info.addReplica(2);
            info.addRemoteMapper(0);
            replicas = {2};
            mappers = {0};
        }

        PageInfo moved(std::move(info));
        EXPECT_EQ(moved.owner(), 1);
        EXPECT_EQ(ids(moved.replicas()), replicas);
        EXPECT_EQ(ids(moved.remoteMappers()), mappers);

        PageInfo assigned;
        assigned.addReplica(5);
        assigned = std::move(moved);
        EXPECT_EQ(assigned.owner(), 1);
        EXPECT_EQ(ids(assigned.replicas()), replicas);
        EXPECT_EQ(ids(assigned.remoteMappers()), mappers);
    }
}

TEST(PageInfo, EraseFreesASpilledRecord)
{
    // The leak check of a sanitizer build sees a block erase forgot.
    sim::PageMap<PageInfo> pages;
    Ids replicas, mappers;
    shareWithAllGpus(pages[5], replicas, mappers);
    EXPECT_TRUE(pages.erase(5));
    EXPECT_EQ(pages.find(5), nullptr);
    EXPECT_TRUE(pages[5].replicas().empty());
    EXPECT_TRUE(pages[5].remoteMappers().empty());
}

TEST(ReplicaDirectory, TotalReplicas)
{
    ReplicaDirectory dir;
    dir.addReplica(1, 0, 0);
    dir.addReplica(1, 2, 0);
    dir.addReplica(1, 2, 0);  // idempotent
    dir.addReplica(9, 1, 0);
    EXPECT_EQ(dir.totalReplicas(), 3u);
    dir.removeReplica(9, 1, 0);
    dir.removeReplica(9, 1, 0);  // absent: no underflow
    EXPECT_EQ(dir.totalReplicas(), 2u);
    dir.clearReplicas(1, 0);
    EXPECT_EQ(dir.totalReplicas(), 0u);
}

// ------------------------------------------------------------------ Cold fault

TEST(UvmDriver, ColdFaultMigratesFromHost)
{
    MiniSystem sys(2);
    sys.usePolicy<policy::UniformPolicy>(policy::kOnTouchRule);

    const FaultOutcome out =
        sys.driver->handleFault(0, 10, false, false, 0);
    EXPECT_FALSE(out.coalesced);
    EXPECT_GT(out.completion, 0u);
    EXPECT_EQ(sys.driver->directory().ownerOf(10), 0);
    EXPECT_TRUE(sys.driver->directory().touched(10));
    EXPECT_TRUE(sys.gpu(0).pageTable().translates(10));
    EXPECT_TRUE(sys.gpu(0).dram().resident(10));
    EXPECT_EQ(sys.stats.get("uvm.cold_migrations"), 1u);
}

TEST(UvmDriver, CoalescedFaultReturnsInflightCompletion)
{
    MiniSystem sys(2);
    sys.usePolicy<policy::UniformPolicy>(policy::kOnTouchRule);
    const FaultOutcome first =
        sys.driver->handleFault(0, 10, false, false, 0);
    const FaultOutcome second =
        sys.driver->handleFault(0, 10, false, false, 1);
    EXPECT_TRUE(second.coalesced);
    EXPECT_EQ(second.completion, first.completion);
    EXPECT_EQ(sys.stats.get("uvm.local_faults"), 1u);
}

// ------------------------------------------------------------------- On-touch

TEST(UvmDriver, OnTouchPingPongMovesOwnership)
{
    MiniSystem sys(2);
    sys.usePolicy<policy::UniformPolicy>(policy::kOnTouchRule);
    sys.driver->handleFault(0, 10, false, false, 0);
    EXPECT_EQ(sys.driver->directory().ownerOf(10), 0);

    sys.driver->handleFault(1, 10, false, false, 100000);
    EXPECT_EQ(sys.driver->directory().ownerOf(10), 1);
    // The old owner's mapping and frame are gone.
    EXPECT_FALSE(sys.gpu(0).pageTable().translates(10));
    EXPECT_FALSE(sys.gpu(0).dram().resident(10));
    EXPECT_TRUE(sys.gpu(1).dram().resident(10));
    EXPECT_EQ(sys.stats.get("uvm.migrations"), 1u);
    EXPECT_EQ(sys.gpu(0).flushes(), 1u);  // owner flushed
}

// ------------------------------------------------------------------ Map remote

TEST(UvmDriver, AccessCounterPolicyMapsRemote)
{
    MiniSystem sys(2);
    sys.usePolicy<policy::UniformPolicy>(policy::kAccessCounterRule);
    sys.driver->handleFault(0, 10, false, false, 0);  // cold: migrate
    sys.driver->handleFault(1, 10, false, false, 100000);
    EXPECT_EQ(sys.driver->directory().ownerOf(10), 0);  // stays put
    const mem::PteRecord *rec = sys.gpu(1).pageTable().find(10);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->kind(), mem::MappingKind::kRemote);
    EXPECT_EQ(rec->location(), 0);
    EXPECT_TRUE(
        sys.driver->directory().find(10)->hasRemoteMapper(1));
    EXPECT_EQ(sys.stats.get("uvm.remote_maps"), 1u);
}

TEST(UvmDriver, MigrationInvalidatesRemoteMappers)
{
    MiniSystem sys(3);
    sys.usePolicy<policy::UniformPolicy>(policy::kAccessCounterRule);
    sys.driver->handleFault(0, 10, false, false, 0);
    sys.driver->handleFault(1, 10, false, false, 100000);
    sys.driver->migratePage(10, 2, 200000,
                            stats::LatencyKind::kPageMigration);
    EXPECT_EQ(sys.driver->directory().ownerOf(10), 2);
    EXPECT_FALSE(sys.gpu(1).pageTable().translates(10));
    EXPECT_TRUE(
        sys.driver->directory().find(10)->remoteMappers().empty());
}

TEST(UvmDriver, CounterMigrationPullsGroupPages)
{
    MiniSystem sys(2);
    sys.usePolicy<policy::UniformPolicy>(policy::kAccessCounterRule);
    // GPU 0 owns pages 0 and 1 (same 64 KB group).
    sys.driver->handleFault(0, 0, false, false, 0);
    sys.driver->handleFault(0, 1, false, false, 1000);
    // GPU 1's counters trip: the whole group migrates to GPU 1.
    sys.driver->counterMigration(1, 0, 200000);
    EXPECT_EQ(sys.driver->directory().ownerOf(0), 1);
    EXPECT_EQ(sys.driver->directory().ownerOf(1), 1);
}

// ----------------------------------------------------------------- Duplication

TEST(UvmDriver, ReadFaultDuplicates)
{
    MiniSystem sys(2);
    sys.usePolicy<policy::UniformPolicy>(policy::kDuplicationRule);
    sys.driver->handleFault(0, 10, false, false, 0);  // cold: own it
    sys.driver->handleFault(1, 10, false, false, 100000);

    const PageInfo *info = sys.driver->directory().find(10);
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(info->owner(), 0);
    EXPECT_TRUE(info->hasReplica(1));
    // Replica mapping is read-only; the owner is write-protected too.
    EXPECT_TRUE(sys.gpu(1).pageTable().find(10)->readOnlyReplica());
    EXPECT_TRUE(sys.gpu(0).pageTable().find(10)->readOnlyReplica());
    EXPECT_EQ(sys.gpu(1).dram().kindOf(10), mem::FrameKind::kReplica);
    EXPECT_EQ(sys.stats.get("uvm.duplications"), 1u);
}

TEST(UvmDriver, WriteCollapseMakesWriterExclusive)
{
    MiniSystem sys(3);
    sys.usePolicy<policy::UniformPolicy>(policy::kDuplicationRule);
    sys.driver->handleFault(0, 10, false, false, 0);
    sys.driver->handleFault(1, 10, false, false, 100000);
    sys.driver->handleFault(2, 10, false, false, 200000);
    EXPECT_EQ(sys.driver->directory().find(10)->replicas().size(), 2u);

    // GPU 1 writes its read-only replica: protection fault -> collapse.
    sys.driver->handleFault(1, 10, true, true, 300000);
    const PageInfo *info = sys.driver->directory().find(10);
    EXPECT_EQ(info->owner(), 1);
    EXPECT_TRUE(info->replicas().empty());
    EXPECT_FALSE(sys.gpu(0).pageTable().translates(10));
    EXPECT_FALSE(sys.gpu(2).pageTable().translates(10));
    EXPECT_TRUE(sys.gpu(1).pageTable().find(10)->pte.writable());
    EXPECT_EQ(sys.gpu(1).dram().kindOf(10), mem::FrameKind::kOwned);
    EXPECT_EQ(sys.stats.get("uvm.collapses"), 1u);
    EXPECT_EQ(sys.stats.get("uvm.protection_faults"), 1u);
}

TEST(UvmDriver, CollapseByNonHolderFetchesData)
{
    MiniSystem sys(3);
    sys.usePolicy<policy::UniformPolicy>(policy::kDuplicationRule);
    sys.driver->handleFault(0, 10, false, false, 0);
    sys.driver->handleFault(1, 10, false, false, 100000);
    // GPU 2 writes without holding any copy.
    sys.driver->handleFault(2, 10, true, false, 200000);
    EXPECT_EQ(sys.driver->directory().ownerOf(10), 2);
    EXPECT_TRUE(sys.gpu(2).dram().resident(10));
    EXPECT_FALSE(sys.gpu(0).dram().resident(10));
}

TEST(UvmDriver, ReadAfterCollapseReduplicates)
{
    MiniSystem sys(2);
    sys.usePolicy<policy::UniformPolicy>(policy::kDuplicationRule);
    sys.driver->handleFault(0, 10, false, false, 0);
    sys.driver->handleFault(1, 10, false, false, 100000);
    sys.driver->handleFault(1, 10, true, true, 200000);  // collapse
    sys.driver->handleFault(0, 10, false, false, 300000);
    EXPECT_TRUE(sys.driver->directory().find(10)->hasReplica(0));
    EXPECT_EQ(sys.stats.get("uvm.duplications"), 2u);
}

TEST(UvmDriver, ResetDuplicationDropsReplicas)
{
    MiniSystem sys(3);
    sys.usePolicy<policy::UniformPolicy>(policy::kDuplicationRule);
    sys.driver->handleFault(0, 10, false, false, 0);
    sys.driver->handleFault(1, 10, false, false, 100000);
    sys.driver->resetDuplication(10, 200000);
    const PageInfo *info = sys.driver->directory().find(10);
    EXPECT_TRUE(info->replicas().empty());
    EXPECT_EQ(info->owner(), 0);
    EXPECT_TRUE(sys.gpu(0).pageTable().find(10)->pte.writable());
    EXPECT_FALSE(sys.gpu(1).pageTable().translates(10));
}

// -------------------------------------------------------------------- Eviction

TEST(UvmDriver, CapacityEvictionSpillsToHost)
{
    MiniSystem sys(2, /*capacity_pages=*/2);
    sys.usePolicy<policy::UniformPolicy>(policy::kOnTouchRule);
    sys.driver->handleFault(0, 1, true, false, 0);
    sys.driver->handleFault(0, 2, true, false, 100000);
    sys.driver->handleFault(0, 3, true, false, 200000);  // evicts page 1
    EXPECT_EQ(sys.driver->directory().ownerOf(1), sim::kHostId);
    EXPECT_FALSE(sys.gpu(0).pageTable().translates(1));
    EXPECT_EQ(sys.stats.get("uvm.spills"), 1u);
    // Written page: spill pays a writeback.
    EXPECT_EQ(sys.stats.get("uvm.spill_writebacks"), 1u);
}

TEST(UvmDriver, CleanSpillSkipsWriteback)
{
    MiniSystem sys(2, /*capacity_pages=*/2);
    sys.usePolicy<policy::UniformPolicy>(policy::kOnTouchRule);
    sys.driver->handleFault(0, 1, false, false, 0);
    sys.driver->handleFault(0, 2, false, false, 100000);
    sys.driver->handleFault(0, 3, false, false, 200000);
    EXPECT_EQ(sys.stats.get("uvm.spills"), 1u);
    EXPECT_EQ(sys.stats.get("uvm.spill_writebacks"), 0u);
}

TEST(UvmDriver, EvictedOwnerPromotesReplica)
{
    MiniSystem sys(2, /*capacity_pages=*/2);
    sys.usePolicy<policy::UniformPolicy>(policy::kDuplicationRule);
    sys.driver->handleFault(0, 1, false, false, 0);       // GPU0 owns 1
    sys.driver->handleFault(1, 1, false, false, 100000);  // GPU1 replica
    // Fill GPU 0 so page 1's owned frame is evicted there.
    sys.driver->handleFault(0, 2, false, false, 200000);
    sys.driver->handleFault(0, 3, false, false, 300000);
    const PageInfo *info = sys.driver->directory().find(1);
    EXPECT_EQ(info->owner(), 1);  // replica promoted to owner
    EXPECT_FALSE(info->hasReplica(1));
    EXPECT_EQ(sys.gpu(1).dram().kindOf(1), mem::FrameKind::kOwned);
}

// ----------------------------------------------------------------------- Ideal

TEST(UvmDriver, IdealInstallsLocalAtAllRequesters)
{
    MiniSystem sys(2);
    sys.usePolicy<policy::UniformPolicy>(policy::kIdealRule);
    sys.driver->handleFault(0, 10, false, false, 0);       // cold
    sys.driver->handleFault(1, 10, false, false, 100000);  // ideal-local
    EXPECT_TRUE(sys.gpu(0).pageTable().translates(10));
    EXPECT_TRUE(sys.gpu(1).pageTable().translates(10));
    EXPECT_EQ(sys.gpu(1).pageTable().find(10)->location(), 1);
}

// --------------------------------------------------------------------- TransFW

TEST(UvmDriver, TransFwShortCircuitsRemoteMapping)
{
    uvm::UvmConfig config;
    config.transFw = true;
    MiniSystem sys(2, 0, config);
    sys.usePolicy<policy::UniformPolicy>(policy::kAccessCounterRule);
    sys.driver->handleFault(0, 10, false, false, 0);  // cold via host
    sys.driver->handleFault(1, 10, false, false, 100000);
    EXPECT_EQ(sys.stats.get("uvm.transfw_forwards"), 1u);
    EXPECT_EQ(sys.gpu(1).pageTable().find(10)->kind(),
              mem::MappingKind::kRemote);
}

// --------------------------------------------------------------------- Prefetch

TEST(UvmDriver, PrefetchPlacesHostPagesOnly)
{
    MiniSystem sys(2);
    sys.usePolicy<policy::UniformPolicy>(policy::kOnTouchRule);
    sys.driver->prefetchPage(10, 0, 0);
    EXPECT_EQ(sys.driver->directory().ownerOf(10), 0);
    EXPECT_TRUE(sys.gpu(0).pageTable().translates(10));
    EXPECT_EQ(sys.stats.get("uvm.prefetches"), 1u);
    // Already resident elsewhere: no-op.
    sys.driver->prefetchPage(10, 1, 100);
    EXPECT_EQ(sys.driver->directory().ownerOf(10), 0);
    EXPECT_EQ(sys.stats.get("uvm.prefetches"), 1u);
}

TEST(UvmDriver, PrefetchPromotingReplicaLeavesReplicaList)
{
    // Regression: a replica frame promoted to owned by a prefetch must
    // leave the directory's replica list, or a later eviction promotes
    // a phantom heir.
    MiniSystem sys(2, /*capacity_pages=*/2);
    sys.usePolicy<policy::UniformPolicy>(policy::kDuplicationRule);
    // Page 1: owner spills to host while GPU 1 keeps a replica... then
    // GPU 1 prefetches it (replica frame becomes the owned copy).
    sys.driver->handleFault(0, 1, false, false, 0);
    sys.driver->handleFault(1, 1, false, false, 100000);
    // Spill owner (GPU 0) by filling its two frames.
    sys.driver->handleFault(0, 2, false, false, 200000);
    sys.driver->handleFault(0, 3, false, false, 300000);
    // If the owner spilled (rather than promoting GPU 1), re-create the
    // replica-under-host-owner shape via a host-owner duplication.
    if (sys.driver->directory().ownerOf(1) == sim::kHostId) {
        sys.driver->prefetchPage(1, 1, 400000);
        EXPECT_FALSE(sys.driver->directory().find(1)->hasReplica(1));
        EXPECT_EQ(sys.driver->directory().ownerOf(1), 1);
    }
    // Now evict GPU 1's frames; the promotion path must not assert.
    sys.driver->handleFault(1, 4, false, false, 500000);
    sys.driver->handleFault(1, 5, false, false, 600000);
    sys.driver->handleFault(1, 6, false, false, 700000);
    SUCCEED();
}

// ------------------------------------------------------------------- Breakdown

TEST(UvmDriver, LatencyChargedToMatchingCategories)
{
    MiniSystem sys(2);
    sys.usePolicy<policy::UniformPolicy>(policy::kDuplicationRule);
    sys.driver->handleFault(0, 10, false, false, 0);
    EXPECT_GT(sys.breakdown.get(stats::LatencyKind::kHost), 0u);
    EXPECT_GT(sys.breakdown.get(stats::LatencyKind::kPageDuplication),
              0u);  // cold placement under duplication
    sys.driver->handleFault(1, 10, false, false, 100000);
    sys.driver->handleFault(1, 10, true, true, 200000);
    EXPECT_GT(sys.breakdown.get(stats::LatencyKind::kWriteCollapse), 0u);
}

}  // namespace
}  // namespace grit::uvm
