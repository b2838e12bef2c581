/** @file Unit tests for the GRIT policy: fault-aware initiation, scheme
 *  changes, capacity-refault filtering, and the ablation flags. */

#include <gtest/gtest.h>

#include <memory>

#include "core/grit_policy.h"
#include "test_util.h"

namespace grit::core {
namespace {

using test::MiniSystem;

/** Build a MiniSystem driven by GRIT with @p config. */
std::pair<std::unique_ptr<MiniSystem>, GritPolicy *>
gritSystem(const GritConfig &config = {}, unsigned gpus = 2,
           std::uint64_t capacity = 0)
{
    auto sys = std::make_unique<MiniSystem>(gpus, capacity);
    GritPolicy *grit = &sys->usePolicy<GritPolicy>(config);
    return {std::move(sys), grit};
}

TEST(GritPolicy, StartsUnderOnTouch)
{
    auto [sys, grit] = gritSystem();
    EXPECT_EQ(grit->schemeOf(10), mem::Scheme::kOnTouch);
    EXPECT_FALSE(grit->countsRemote(10));

    // First faults behave as on-touch migrations.
    sys->driver->handleFault(0, 10, false, false, 0);
    EXPECT_EQ(sys->driver->directory().ownerOf(10), 0);
    sys->driver->handleFault(1, 10, false, false, 100000);
    EXPECT_EQ(sys->driver->directory().ownerOf(10), 1);
}

TEST(GritPolicy, ReadSharedPageConvertsToDuplication)
{
    auto [sys, grit] = gritSystem();
    // Four read faults (ping-pong between two GPUs) reach the default
    // threshold; all reads -> duplication (Fig. 13).
    sim::Cycle t = 0;
    for (int i = 0; i < 4; ++i) {
        sys->driver->handleFault(i % 2, 10, false, false, t);
        t += 100000;
    }
    EXPECT_EQ(grit->schemeOf(10), mem::Scheme::kDuplication);
    EXPECT_EQ(sys->stats.get("grit.changes_to_duplication"), 1u);
    EXPECT_EQ(sys->stats.get("grit.changes_to_access_counter"), 0u);

    // The triggering (fourth) fault already resolved under the new
    // scheme: GPU 1 received a replica instead of migrating the page.
    EXPECT_EQ(sys->driver->directory().ownerOf(10), 0);
    EXPECT_TRUE(sys->driver->directory().find(10)->hasReplica(1));
}

TEST(GritPolicy, WrittenSharedPageConvertsToAccessCounter)
{
    auto [sys, grit] = gritSystem();
    sim::Cycle t = 0;
    for (int i = 0; i < 4; ++i) {
        sys->driver->handleFault(i % 2, 10, i == 1, false, t);
        t += 100000;
    }
    // One write among the faults: sticky R/W bit -> access counter.
    EXPECT_EQ(grit->schemeOf(10), mem::Scheme::kAccessCounter);
    EXPECT_TRUE(grit->countsRemote(10));
    EXPECT_EQ(sys->stats.get("grit.changes_to_access_counter"), 1u);

    // The triggering fault already resolved as a remote mapping: GPU 1
    // now reads GPU 0's copy over the fabric.
    EXPECT_EQ(sys->driver->directory().ownerOf(10), 0);
    EXPECT_EQ(sys->gpu(1).pageTable().find(10)->kind(),
              mem::MappingKind::kRemote);
}

TEST(GritPolicy, ThresholdIsConfigurable)
{
    GritConfig config;
    config.faultThreshold = 2;
    auto [sys, grit] = gritSystem(config);
    sys->driver->handleFault(0, 10, false, false, 0);
    sys->driver->handleFault(1, 10, false, false, 100000);
    EXPECT_EQ(grit->schemeOf(10), mem::Scheme::kDuplication);
}

TEST(GritPolicy, CapacityRefaultsDoNotAdvanceCounter)
{
    // Two-frame GPUs: private pages spill and refault repeatedly.
    auto [sys, grit] = gritSystem({}, 2, /*capacity=*/2);
    sim::Cycle t = 0;
    // GPU 0 cycles through three private pages many times.
    for (int round = 0; round < 4; ++round) {
        for (sim::PageId p = 1; p <= 3; ++p) {
            sys->driver->handleFault(0, p, false, false, t);
            t += 100000;
        }
    }
    // Despite 4 faults per page, the spill refaults carried no sharing
    // signal: every page stays on the default scheme.
    for (sim::PageId p = 1; p <= 3; ++p)
        EXPECT_EQ(grit->schemeOf(p), mem::Scheme::kOnTouch) << p;
    EXPECT_GT(sys->stats.get("grit.capacity_refaults"), 0u);
    EXPECT_EQ(sys->stats.get("grit.changes_to_duplication"), 0u);
    EXPECT_EQ(sys->stats.get("grit.changes_to_access_counter"), 0u);
}

TEST(GritPolicy, NapPropagatesToNeighbors)
{
    GritConfig config;
    config.faultThreshold = 2;
    auto [sys, grit] = gritSystem(config);
    // Pages 0..4 of the aligned 8-group become duplication one by one;
    // when the majority is reached the rest of the group follows.
    sim::Cycle t = 0;
    for (sim::PageId p = 0; p < 5; ++p) {
        sys->driver->handleFault(0, p, false, false, t);
        t += 100000;
        sys->driver->handleFault(1, p, false, false, t);
        t += 100000;
    }
    EXPECT_GT(sys->stats.get("grit.nap_adoptions"), 0u);
    // All eight pages of the group now share the scheme.
    for (sim::PageId p = 0; p < 8; ++p) {
        EXPECT_EQ(sys->driver->centralTable().scheme(p),
                  mem::Scheme::kDuplication)
            << p;
    }
    EXPECT_EQ(sys->driver->centralTable().groupBits(0),
              mem::GroupBits::kPages8);
}

TEST(GritPolicy, NapDisabledLeavesNeighborsAlone)
{
    GritConfig config;
    config.faultThreshold = 2;
    config.napEnabled = false;
    auto [sys, grit] = gritSystem(config);
    sim::Cycle t = 0;
    for (sim::PageId p = 0; p < 5; ++p) {
        sys->driver->handleFault(0, p, false, false, t);
        t += 100000;
        sys->driver->handleFault(1, p, false, false, t);
        t += 100000;
    }
    EXPECT_EQ(sys->stats.get("grit.nap_adoptions"), 0u);
    EXPECT_EQ(sys->driver->centralTable().scheme(7), mem::Scheme::kNone);
}

TEST(GritPolicy, PaCacheDisabledStillDecides)
{
    GritConfig config;
    config.faultThreshold = 2;
    config.paCacheEnabled = false;
    auto [sys, grit] = gritSystem(config);
    sys->driver->handleFault(0, 10, false, false, 0);
    sys->driver->handleFault(1, 10, false, false, 100000);
    EXPECT_EQ(grit->schemeOf(10), mem::Scheme::kDuplication);
    EXPECT_EQ(grit->paCache(), nullptr);
    EXPECT_GT(grit->paTable().writes(), 0u);
}

TEST(GritPolicy, SchemeResetFromDuplicationDropsReplicas)
{
    GritConfig config;
    config.faultThreshold = 2;
    auto [sys, grit] = gritSystem(config, 3);
    // Convert page 10 to duplication and replicate it.
    sys->driver->handleFault(0, 10, false, false, 0);
    sys->driver->handleFault(1, 10, false, false, 100000);
    EXPECT_EQ(grit->schemeOf(10), mem::Scheme::kDuplication);
    sys->driver->handleFault(2, 10, false, false, 200000);
    EXPECT_FALSE(sys->driver->directory().find(10)->replicas().empty());

    // Two write faults flip the page to access counter; replicas die.
    sys->driver->handleFault(1, 10, true, true, 300000);
    sys->driver->handleFault(2, 10, true, false, 400000);
    EXPECT_EQ(grit->schemeOf(10), mem::Scheme::kAccessCounter);
    EXPECT_TRUE(sys->driver->directory().find(10)->replicas().empty());
}

TEST(GritPolicy, FaultOverheadReflectsPaMachinery)
{
    GritConfig config;
    config.paCacheEnabled = false;
    auto [sys, grit] = gritSystem(config);
    policy::FaultInfo info;
    info.gpu = 0;
    info.page = 10;
    info.coldTouch = true;  // counted fault (not a capacity refault)
    const policy::FaultDecision decision = grit->onFault(info, 0);
    // Without the PA-Cache every fault pays two PA-Table host-memory
    // accesses, less the slack the page-table walk hides: 2 x 150 - 150
    // cycles. The page still starts under on-touch.
    EXPECT_EQ(decision.overhead, 150u);
    EXPECT_EQ(decision.action, policy::FaultAction::kMigrate);
}

}  // namespace
}  // namespace grit::core
