/** @file Multi-page-size substrate tests (docs/PAGESIZE.md): geometry
 *  validation, the huge-key namespace, region-aware DRAM accounting,
 *  RegionTracker bookkeeping, promote/splinter churn at the driver
 *  level (audited each round), and end-to-end dynamic-mode runs whose
 *  promote/splinter ledger must reconcile exactly. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/invariant_auditor.h"
#include "mem/dram_manager.h"
#include "mem/page_geometry.h"
#include "mem/region_tracker.h"
#include "test_util.h"
#include "workload/apps.h"

namespace grit {
namespace {

/** True when any validate() violation's context mentions @p where. */
bool
mentions(const std::vector<sim::SimError> &violations,
         const std::string &where)
{
    for (const sim::SimError &v : violations)
        if (v.context.find(where) != std::string::npos)
            return true;
    return false;
}

std::uint64_t
counterOf(const harness::RunResult &result, const std::string &name)
{
    for (const auto &[key, value] : result.counters)
        if (key == name)
            return value;
    return 0;
}

bool
hasCounter(const harness::RunResult &result, const std::string &name)
{
    for (const auto &[key, value] : result.counters)
        if (key == name)
            return true;
    return false;
}

// ------------------------------------------------------------- PageGeometry

TEST(PageGeometry, DefaultIsValid4kWithoutHugePages)
{
    const mem::PageGeometry geo{};
    EXPECT_EQ(geo.baseSize, sim::kPageSize4K);
    EXPECT_FALSE(geo.hugePages);
    EXPECT_TRUE(geo.validate("geometry").empty());
}

TEST(PageGeometry, RegionMath)
{
    mem::PageGeometry geo;
    geo.hugePages = true;
    geo.hugeSize = 32 * 1024;  // 8 base pages
    EXPECT_EQ(geo.basePagesPerHuge(), 8u);
    EXPECT_EQ(geo.regionOf(0), 0u);
    EXPECT_EQ(geo.regionOf(7), 0u);
    EXPECT_EQ(geo.regionOf(8), 1u);
    EXPECT_EQ(geo.regionFirstPage(3), 24u);
    EXPECT_EQ(geo.linesPerBase(), sim::kPageSize4K / sim::kLineSize);
}

TEST(PageGeometry, RejectsDegenerateSizes)
{
    mem::PageGeometry geo;
    geo.baseSize = 0;
    EXPECT_TRUE(mentions(geo.validate("geometry"), "geometry.baseSize"));

    geo.baseSize = 12 * 1024;  // not a power of two
    EXPECT_TRUE(mentions(geo.validate("geometry"), "geometry.baseSize"));

    geo = mem::PageGeometry{};
    geo.hugePages = true;
    geo.hugeSize = geo.baseSize;  // must exceed the base granule
    EXPECT_TRUE(mentions(geo.validate("geometry"), "geometry.hugeSize"));

    geo.hugeSize = 24 * 1024;  // not a power of two
    EXPECT_TRUE(mentions(geo.validate("geometry"), "geometry.hugeSize"));

    geo = mem::PageGeometry{};
    geo.hugePages = true;
    geo.promoteFaultThreshold = 0;
    EXPECT_TRUE(mentions(geo.validate("geometry"),
                         "geometry.promoteFaultThreshold"));

    // Huge-page knobs are ignored while the mode is off.
    geo = mem::PageGeometry{};
    geo.hugeSize = 0;
    geo.promoteFaultThreshold = 0;
    EXPECT_TRUE(geo.validate("geometry").empty());
}

TEST(PageGeometry, SystemConfigValidateReportsGeometryErrors)
{
    harness::SystemConfig config =
        harness::makeConfig(harness::PolicyKind::kOnTouch, 4);
    config.geometry.baseSize = 0;
    EXPECT_TRUE(mentions(config.validate(), "geometry.baseSize"));
}

TEST(PageGeometry, HugeKeyNamespaceRoundTrips)
{
    const sim::PageId region = 123456;
    const sim::PageId key = mem::hugeKey(region);
    EXPECT_TRUE(mem::isHugeKey(key));
    EXPECT_EQ(mem::hugeKeyRegion(key), region);
    // Base page ids never collide with the huge-key namespace.
    EXPECT_FALSE(mem::isHugeKey(region));
    EXPECT_FALSE(mem::isHugeKey(0));
    EXPECT_NE(key, region);
}

// -------------------------------------------------- DramManager regions

TEST(DramRegions, TracksOwnedPagesPerRegion)
{
    mem::DramManager dram(100);
    dram.configureRegions(4);
    EXPECT_EQ(dram.ownedInRegion(0), 0u);
    dram.insert(0, mem::FrameKind::kOwned);
    dram.insert(1, mem::FrameKind::kOwned);
    dram.insert(5, mem::FrameKind::kOwned);  // region 1
    EXPECT_EQ(dram.ownedInRegion(0), 2u);
    EXPECT_EQ(dram.ownedInRegion(1), 1u);
    dram.erase(1);
    EXPECT_EQ(dram.ownedInRegion(0), 1u);
    // Replicas are not owned frames.
    dram.insert(2, mem::FrameKind::kReplica);
    EXPECT_EQ(dram.ownedInRegion(0), 1u);
    dram.setKind(2, mem::FrameKind::kOwned);
    EXPECT_EQ(dram.ownedInRegion(0), 2u);
}

TEST(DramRegions, PinnedRegionsAreSkippedByEviction)
{
    mem::DramManager dram(4);  // capacity: exactly one region
    dram.configureRegions(4);
    for (sim::PageId p = 0; p < 4; ++p)
        dram.insert(p, mem::FrameKind::kOwned);
    dram.pinRegion(0);
    EXPECT_TRUE(dram.regionPinned(0));

    // The next insert must evict, but every resident page sits in the
    // pinned region: the fallback victim is still produced (the caller
    // splinters), so capacity can never deadlock.
    const auto eviction = dram.insert(100, mem::FrameKind::kOwned);
    ASSERT_TRUE(eviction.has_value());
    EXPECT_LT(eviction->page, 4u);

    dram.unpinRegion(0);
    EXPECT_FALSE(dram.regionPinned(0));
}

TEST(DramRegions, UnpinnedVictimPreferredOverPinned)
{
    mem::DramManager dram(8);
    dram.configureRegions(4);
    for (sim::PageId p = 0; p < 8; ++p)
        dram.insert(p, mem::FrameKind::kOwned);
    // Region 0 (pages 0-3) is oldest in LRU but pinned; the victim
    // must come from region 1 instead.
    dram.pinRegion(0);
    const auto eviction = dram.insert(100, mem::FrameKind::kOwned);
    ASSERT_TRUE(eviction.has_value());
    EXPECT_GE(eviction->page, 4u);
}

// ---------------------------------------------------------- RegionTracker

TEST(RegionTracker, DisabledWithoutHugePages)
{
    const mem::RegionTracker tracker{mem::PageGeometry{}};
    EXPECT_FALSE(tracker.enabled());
}

TEST(RegionTracker, LedgerAndHeat)
{
    mem::PageGeometry geo;
    geo.hugePages = true;
    geo.hugeSize = 16 * 1024;  // 4 pages
    mem::RegionTracker tracker(geo);
    ASSERT_TRUE(tracker.enabled());
    EXPECT_EQ(tracker.regionOf(7), 1u);

    EXPECT_EQ(tracker.noteRegionFault(0, 5), 1u);
    EXPECT_EQ(tracker.noteRegionFault(0, 5), 2u);
    EXPECT_EQ(tracker.noteRegionFault(1, 5), 1u);  // per-GPU heat
    EXPECT_EQ(tracker.regionFaults(0, 5), 2u);

    tracker.markPromoted(5, 0);
    EXPECT_TRUE(tracker.promoted(5));
    EXPECT_EQ(tracker.holder(5), 0);
    EXPECT_EQ(tracker.promotedCount(), 1u);
    EXPECT_EQ(tracker.promotedPages(), 4u);

    tracker.markSplintered(5, mem::SplinterReason::kWriteSharing);
    EXPECT_FALSE(tracker.promoted(5));
    EXPECT_EQ(tracker.holder(5), sim::kNoGpu);
    EXPECT_EQ(tracker.promotedCount(), 0u);
    EXPECT_EQ(tracker.splinters(), 1u);
    EXPECT_EQ(tracker.splintersBy(mem::SplinterReason::kWriteSharing), 1u);
    EXPECT_EQ(tracker.splintersBy(mem::SplinterReason::kEviction), 0u);
    // Splintering drops the heat: re-promotion needs fresh evidence.
    EXPECT_EQ(tracker.regionFaults(0, 5), 0u);
    EXPECT_EQ(tracker.regionFaults(1, 5), 0u);
}

// --------------------------------------------- driver promote/splinter

/** 4-page regions, low threshold: promotable with a handful of faults. */
mem::PageGeometry
smallDynamicGeometry()
{
    mem::PageGeometry geo;
    geo.hugePages = true;
    geo.hugeSize = 16 * 1024;  // 4 base pages per region
    geo.promoteFaultThreshold = 3;
    return geo;
}

/** Expect a clean cross-layer audit; prints violations on failure. */
void
expectCleanAudit(test::MiniSystem &sys)
{
    sim::InvariantAuditor auditor(*sys.driver,
                                  harness::PolicyKind::kOnTouch);
    const std::vector<sim::SimError> violations = auditor.audit();
    EXPECT_TRUE(violations.empty());
    for (const sim::SimError &v : violations)
        ADD_FAILURE() << v.str();
}

TEST(PromoteSplinter, FullyResidentHotRegionPromotes)
{
    test::MiniSystem sys(2, 0, {}, smallDynamicGeometry());
    sys.usePolicy<policy::UniformPolicy>(policy::kOnTouchRule);
    sim::Cycle now = 0;
    for (sim::PageId p = 0; p < 4; ++p)
        sys.driver->handleFault(0, p, true, false, now += 10000);

    EXPECT_TRUE(sys.driver->regionTracker().promoted(0));
    EXPECT_EQ(sys.driver->regionTracker().holder(0), 0);
    EXPECT_TRUE(sys.gpu(0).hugeMapped(0));
    EXPECT_EQ(sys.gpu(0).hugeMappingCount(), 1u);
    EXPECT_TRUE(sys.gpu(0).dram().regionPinned(0));
    expectCleanAudit(sys);
}

TEST(PromoteSplinter, AuditCatchesAHugeMappingDroppedBehindTheTracker)
{
    test::MiniSystem sys(2, 0, {}, smallDynamicGeometry());
    sys.usePolicy<policy::UniformPolicy>(policy::kOnTouchRule);
    sim::Cycle now = 0;
    for (sim::PageId p = 0; p < 4; ++p)
        sys.driver->handleFault(0, p, true, false, now += 10000);
    ASSERT_TRUE(sys.driver->regionTracker().promoted(0));
    sim::InvariantAuditor auditor(*sys.driver,
                                  harness::PolicyKind::kOnTouch);
    ASSERT_TRUE(auditor.audit().empty());

    // Corrupt: drop gpu0's huge mapping without the driver's splinter,
    // so the tracker and its ledger still count the region promoted.
    sys.gpu(0).splinterRegion(0);
    const std::vector<sim::SimError> violations = auditor.audit();
    ASSERT_EQ(violations.size(), 2u);
    EXPECT_EQ(violations[0].message,
              "tracker says promoted but gpu0 has no huge mapping");
    EXPECT_TRUE(violations[1].message.starts_with(
        "promotion ledger out of balance"))
        << violations[1].message;
}

TEST(PromoteSplinter, PartialResidencyNeverPromotes)
{
    test::MiniSystem sys(2, 0, {}, smallDynamicGeometry());
    sys.usePolicy<policy::UniformPolicy>(policy::kOnTouchRule);
    sim::Cycle now = 0;
    // Heat crosses the threshold but page 3 never becomes resident.
    for (int round = 0; round < 3; ++round)
        for (sim::PageId p = 0; p < 3; ++p)
            sys.driver->handleFault(0, p, true, false, now += 10000);
    EXPECT_FALSE(sys.driver->regionTracker().promoted(0));
    EXPECT_FALSE(sys.gpu(0).hugeMapped(0));
    expectCleanAudit(sys);
}

TEST(PromoteSplinter, RemoteWriterSplintersAndChurnStaysCoherent)
{
    test::MiniSystem sys(2, 0, {}, smallDynamicGeometry());
    sys.usePolicy<policy::UniformPolicy>(policy::kOnTouchRule);
    const mem::RegionTracker &tracker = sys.driver->regionTracker();
    sim::Cycle now = 0;

    // Promote -> steal from the other GPU (write sharing splinters the
    // region, then migration rebuilds residency there) -> re-promote.
    // Every round must leave all three layers agreeing.
    sim::GpuId holder = 0;
    for (int round = 0; round < 4; ++round) {
        for (sim::PageId p = 0; p < 4; ++p)
            sys.driver->handleFault(holder, p, true, false, now += 10000);
        ASSERT_TRUE(tracker.promoted(0)) << "round " << round;
        EXPECT_EQ(tracker.holder(0), holder);
        EXPECT_TRUE(sys.gpu(static_cast<unsigned>(holder)).hugeMapped(0));
        expectCleanAudit(sys);

        const sim::GpuId thief = holder == 0 ? 1 : 0;
        sys.driver->handleFault(thief, 0, true, false, now += 10000);
        EXPECT_FALSE(tracker.promoted(0));
        EXPECT_FALSE(sys.gpu(static_cast<unsigned>(holder)).hugeMapped(0));
        EXPECT_FALSE(sys.gpu(0).dram().regionPinned(0));
        EXPECT_FALSE(sys.gpu(1).dram().regionPinned(0));
        expectCleanAudit(sys);
        holder = thief;
    }

    EXPECT_EQ(tracker.promotions(), 4u);
    EXPECT_EQ(tracker.splinters(), 4u);
    EXPECT_EQ(tracker.splintersBy(mem::SplinterReason::kWriteSharing), 4u);
}

TEST(PromoteSplinter, SplinterAllPromotedDropsEveryRegion)
{
    test::MiniSystem sys(2, 0, {}, smallDynamicGeometry());
    sys.usePolicy<policy::UniformPolicy>(policy::kOnTouchRule);
    sim::Cycle now = 0;
    for (sim::PageId p = 0; p < 4; ++p)
        sys.driver->handleFault(0, p, true, false, now += 10000);
    for (sim::PageId p = 8; p < 12; ++p)  // region 2
        sys.driver->handleFault(1, p, true, false, now += 10000);
    ASSERT_EQ(sys.driver->regionTracker().promotedCount(), 2u);

    EXPECT_EQ(sys.driver->splinterAllPromoted(now + 1000), 2u);
    EXPECT_EQ(sys.driver->regionTracker().promotedCount(), 0u);
    EXPECT_EQ(sys.driver->regionTracker().splintersBy(
                  mem::SplinterReason::kChaos),
              2u);
    EXPECT_EQ(sys.gpu(0).hugeMappingCount(), 0u);
    EXPECT_EQ(sys.gpu(1).hugeMappingCount(), 0u);
    expectCleanAudit(sys);
}

// ------------------------------------------------------------ end to end

/** Dynamic-mode config: fully resident so promotions can stick. */
harness::SystemConfig
dynamicConfig(harness::PolicyKind policy)
{
    harness::SystemConfig config = harness::makeConfig(policy, 4);
    config.geometry.hugePages = true;
    config.geometry.hugeSize = 32 * 1024;
    config.memoryFraction = 0.0;
    config.pageSizeStats = true;
    config.audit = true;
    return config;
}

workload::WorkloadParams
streamParams()
{
    workload::WorkloadParams params;
    params.footprintDivisor = 32;
    params.intensity = 1.0;
    return params;
}

TEST(PageSizeEndToEnd, LedgerReconcilesUnderAudit)
{
    const harness::RunResult result = harness::runApp(
        workload::AppId::kSt, dynamicConfig(harness::PolicyKind::kOnTouch),
        streamParams());
    EXPECT_TRUE(result.auditFindings.empty());
    EXPECT_EQ(counterOf(result, "audit.violations"), 0u);
    EXPECT_GT(counterOf(result, "promote.regions"), 0u);
    // The ISSUE's reconciliation identity: promotions minus splinters
    // is exactly the number of live huge mappings.
    EXPECT_EQ(counterOf(result, "promote.regions") -
                  counterOf(result, "splinter.regions"),
              counterOf(result, "promote.live_regions"));
}

TEST(PageSizeEndToEnd, PromotionReducesPageWalksWhenResident)
{
    harness::SystemConfig fixed =
        harness::makeConfig(harness::PolicyKind::kOnTouch, 4);
    fixed.memoryFraction = 0.0;
    fixed.pageSizeStats = true;
    const harness::RunResult base =
        harness::runApp(workload::AppId::kSt, fixed, streamParams());
    const harness::RunResult dyn = harness::runApp(
        workload::AppId::kSt, dynamicConfig(harness::PolicyKind::kOnTouch),
        streamParams());
    EXPECT_LT(counterOf(dyn, "gmmu.walks"), counterOf(base, "gmmu.walks"));
    EXPECT_LT(counterOf(dyn, "tlb.l2_misses"),
              counterOf(base, "tlb.l2_misses"));
}

TEST(PageSizeEndToEnd, DynamicModeIsDeterministic)
{
    const harness::SystemConfig config =
        dynamicConfig(harness::PolicyKind::kGrit);
    const workload::Workload w =
        workload::makeWorkload(workload::AppId::kSt, streamParams());
    const harness::RunResult a = harness::runWorkload(config, w);
    const harness::RunResult b = harness::runWorkload(config, w);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.counters, b.counters);
}

TEST(PageSizeEndToEnd, FeatureOffKeepsCounterSetUnchanged)
{
    harness::SystemConfig config =
        harness::makeConfig(harness::PolicyKind::kOnTouch, 4);
    ASSERT_FALSE(config.geometry.hugePages);
    const harness::RunResult result = harness::runApp(
        workload::AppId::kGemm, config, streamParams());
    // The dynamic-mode counters must not leak into classic documents
    // (the byte-identical goldens depend on the counter set).
    EXPECT_FALSE(hasCounter(result, "promote.regions"));
    EXPECT_FALSE(hasCounter(result, "splinter.regions"));
    EXPECT_FALSE(hasCounter(result, "tlb.l1_hits"));
    EXPECT_FALSE(hasCounter(result, "pwc.misses"));
}

TEST(PageSizeEndToEnd, PromoteStormChaosSplintersAndStaysClean)
{
    harness::SystemConfig config =
        dynamicConfig(harness::PolicyKind::kOnTouch);
    config.chaos = sim::ChaosSpec::parse("promostorm:period=20000");
    const harness::RunResult result = harness::runApp(
        workload::AppId::kSt, config, streamParams());
    EXPECT_TRUE(result.auditFindings.empty());
    EXPECT_GT(counterOf(result, "splinter.chaos"), 0u);
    EXPECT_EQ(counterOf(result, "chaos.promote_splinters"),
              counterOf(result, "splinter.chaos"));
    EXPECT_EQ(counterOf(result, "promote.regions") -
                  counterOf(result, "splinter.regions"),
              counterOf(result, "promote.live_regions"));
}

TEST(PageSizeEndToEnd, MalformedPromostormSpecRejected)
{
    EXPECT_THROW(sim::ChaosSpec::parse("promostorm:period=0"),
                 sim::SimException);
    EXPECT_THROW(sim::ChaosSpec::parse("promostorm:bogus=1"),
                 sim::SimException);
}

}  // namespace
}  // namespace grit
