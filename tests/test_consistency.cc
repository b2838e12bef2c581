/** @file Cross-module consistency properties: after arbitrary sequences
 *  of faults, migrations, duplications, collapses, evictions, and
 *  prefetches, the directory, the per-GPU page tables, and the DRAM
 *  frame states must agree. Randomized stress against every policy —
 *  the class of test that catches stale-directory bugs. */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "baselines/gps.h"
#include "baselines/griffin.h"
#include "baselines/tree_prefetcher.h"
#include "core/grit_policy.h"
#include "harness/experiment.h"
#include "simcore/rng.h"
#include "test_util.h"

namespace grit {
namespace {

using test::MiniSystem;

/**
 * Validate every invariant tying the driver's directory to the GPUs'
 * page tables and DRAM frames. Returns a description of the first
 * violation, or an empty string.
 */
std::string
validate(MiniSystem &sys, sim::PageId max_page)
{
    const auto &dir = sys.driver->directory();
    for (sim::PageId page = 0; page <= max_page; ++page) {
        const uvm::PageInfo *info = dir.find(page);
        if (info == nullptr)
            continue;
        const std::string tag = "page " + std::to_string(page) + ": ";

        // 1) A GPU owner must back the page with an owned frame.
        if (info->owner() >= 0) {
            auto &dram = sys.gpu(static_cast<unsigned>(info->owner())).dram();
            if (!dram.resident(page))
                return tag + "owner frame missing";
            if (dram.kindOf(page) != mem::FrameKind::kOwned)
                return tag + "owner frame not owned";
        }

        // 2) The owner never appears in its own replica list.
        if (info->owner() >= 0 && info->hasReplica(info->owner()))
            return tag + "owner listed as replica";

        // 3) Every replica holder backs the page with a replica frame.
        for (sim::GpuId holder : info->replicas()) {
            auto &dram = sys.gpu(static_cast<unsigned>(holder)).dram();
            if (!dram.resident(page))
                return tag + "replica frame missing at GPU " +
                       std::to_string(holder);
            if (dram.kindOf(page) != mem::FrameKind::kReplica)
                return tag + "replica frame has wrong kind";
        }

        // 4) Valid local mappings must match a real local frame; valid
        //    remote mappings must point at the directory owner.
        for (unsigned g = 0; g < sys.driver->numGpus(); ++g) {
            const mem::PteRecord *rec =
                sys.gpu(g).pageTable().find(page);
            if (rec == nullptr || !rec->pte.valid())
                continue;
            if (rec->kind() == mem::MappingKind::kLocal) {
                if (!sys.gpu(g).dram().resident(page))
                    return tag + "valid local PTE without frame at GPU " +
                           std::to_string(g);
            } else {
                if (rec->location() != info->owner())
                    return tag + "remote PTE points at " +
                           std::to_string(rec->location()) + " but owner is " +
                           std::to_string(info->owner());
            }
        }

        // 5) Replicas imply a write-protected page: any valid local
        //    mapping of a replicated page must be read-only.
        if (!info->replicas().empty() && info->owner() >= 0) {
            const mem::PteRecord *rec =
                sys.gpu(static_cast<unsigned>(info->owner()))
                    .pageTable()
                    .find(page);
            // GPS (writable replicas) opts out via readOnlyReplica on
            // neither side; only enforce when a replica PTE is RO.
            const sim::GpuId holder = info->replicas().front();
            const mem::PteRecord *replica_rec =
                sys.gpu(static_cast<unsigned>(holder))
                    .pageTable()
                    .find(page);
            if (replica_rec != nullptr && replica_rec->pte.valid() &&
                replica_rec->readOnlyReplica() && rec != nullptr &&
                rec->pte.valid() && rec->pte.writable()) {
                return tag + "writable owner with read-only replicas";
            }
        }
    }
    return "";
}

/**
 * Random fault/access storm against a @p P built from @p args,
 * validating as it goes.
 */
template <typename P, typename... Args>
void
stress(bool with_prefetcher, std::uint64_t seed, const Args &...args)
{
    constexpr unsigned kGpus = 4;
    constexpr sim::PageId kPages = 64;
    constexpr std::uint64_t kCapacity = 12;  // heavy oversubscription

    MiniSystem sys(kGpus, kCapacity);
    policy::PlacementPolicy *p = &sys.usePolicy<P>(args...);
    std::unique_ptr<baselines::TreePrefetcher> prefetcher;
    if (with_prefetcher) {
        baselines::PrefetcherConfig config;
        config.pagesPerBlock = 4;
        config.blocksPerRoot = 8;
        prefetcher =
            std::make_unique<baselines::TreePrefetcher>(*sys.driver,
                                                        config);
    }

    sim::Rng rng(seed);
    sim::Cycle now = 0;
    for (unsigned op = 0; op < 3000; ++op) {
        const auto gpu = static_cast<sim::GpuId>(rng.below(kGpus));
        const sim::PageId page = rng.below(kPages);
        const bool write = rng.chance(0.3);
        now += 50 + rng.below(500);

        // Mimic the simulator: fault when the local translation is
        // unusable, count remote accesses, occasionally drive the
        // policy's access hook.
        const mem::PteRecord *rec =
            sys.gpu(static_cast<unsigned>(gpu)).pageTable().find(page);
        const bool usable = rec != nullptr && rec->pte.valid() &&
                            (!write || !rec->readOnlyReplica());
        if (!usable) {
            const bool protection = rec != nullptr && rec->pte.valid() &&
                                    write && rec->readOnlyReplica();
            sys.driver->handleFault(gpu, page, write, protection, now);
        } else if (rec->kind() == mem::MappingKind::kRemote &&
                   p->countsRemote(page) &&
                   sys.gpu(static_cast<unsigned>(gpu))
                       .counters()
                       .recordRemoteAccess(page)) {
            sys.driver->counterMigration(gpu, page, now);
        }
        p->onAccess(gpu, page, write,
                    rec != nullptr &&
                        rec->kind() == mem::MappingKind::kRemote,
                    now);

        if (op % 100 == 0) {
            const std::string violation = validate(sys, kPages);
            ASSERT_EQ(violation, "") << "after op " << op;
        }
    }
    const std::string violation = validate(sys, kPages);
    EXPECT_EQ(violation, "");
}

TEST(Consistency, OnTouchStorm)
{
    stress<policy::UniformPolicy>(false, 1, policy::kOnTouchRule);
}

TEST(Consistency, AccessCounterStorm)
{
    stress<policy::UniformPolicy>(false, 2, policy::kAccessCounterRule);
}

TEST(Consistency, DuplicationStorm)
{
    stress<policy::UniformPolicy>(false, 3, policy::kDuplicationRule);
}

TEST(Consistency, FirstTouchStorm)
{
    stress<policy::UniformPolicy>(false, 4, policy::kFirstTouchRule);
}

TEST(Consistency, GritStorm)
{
    stress<core::GritPolicy>(false, 5);
}

TEST(Consistency, GritLowThresholdStorm)
{
    core::GritConfig config;
    config.faultThreshold = 2;
    stress<core::GritPolicy>(false, 6, config);
}

TEST(Consistency, GriffinStorm)
{
    baselines::GriffinConfig config;
    config.intervalCycles = 5000;
    config.minAccesses = 4;
    stress<baselines::GriffinDpcPolicy>(false, 7, config);
}

TEST(Consistency, GpsStorm)
{
    stress<baselines::GpsPolicy>(false, 8);
}

TEST(Consistency, OnTouchWithPrefetcherStorm)
{
    // The configuration that exposed the stale-replica-promotion bug.
    stress<policy::UniformPolicy>(true, 9, policy::kOnTouchRule);
}

TEST(Consistency, GritWithPrefetcherStorm)
{
    stress<core::GritPolicy>(true, 10);
}

TEST(Consistency, DuplicationWithPrefetcherStorm)
{
    stress<policy::UniformPolicy>(true, 11, policy::kDuplicationRule);
}

/** Seed sweep of the nastiest configuration. */
class GritPrefetchSeeds : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(GritPrefetchSeeds, StaysConsistent)
{
    core::GritConfig config;
    config.faultThreshold = 2;  // maximal scheme churn
    stress<core::GritPolicy>(true, GetParam(), config);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GritPrefetchSeeds,
                         ::testing::Values(100u, 101u, 102u, 103u, 104u,
                                           105u, 106u, 107u));

}  // namespace
}  // namespace grit
