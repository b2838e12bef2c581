/** @file Robustness suite: structured errors, chaos-spec parsing,
 *  config validation, deterministic fault injection, cross-layer
 *  invariant auditing (property-style sequences plus deliberate
 *  corruption), and chaos end-to-end runs. */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "harness/config.h"
#include "harness/experiment.h"
#include "harness/invariant_auditor.h"
#include "harness/simulator.h"
#include "simcore/fault_injector.h"
#include "simcore/rng.h"
#include "simcore/sim_error.h"
#include "test_util.h"
#include "uvm/replica_directory.h"
#include "workload/apps.h"

namespace grit {
namespace {

using test::MiniSystem;

// -------------------------------------------------------------- SimError

TEST(SimError, FormatsCodeContextAndMessage)
{
    const sim::SimError err(sim::ErrorCode::kTraceLoad, "file vanished",
                            "fig17.json");
    EXPECT_EQ(err.str(),
              "error [trace-load] fig17.json: file vanished");
    const sim::SimError bare(sim::ErrorCode::kInternal, "oops");
    EXPECT_EQ(bare.str(), "error [internal]: oops");
}

TEST(SimError, EveryCodeHasAStableName)
{
    EXPECT_STREQ(sim::errorCodeName(sim::ErrorCode::kConfigInvalid),
                 "config-invalid");
    EXPECT_STREQ(sim::errorCodeName(sim::ErrorCode::kBadArgument),
                 "bad-argument");
    EXPECT_STREQ(sim::errorCodeName(sim::ErrorCode::kChaosSpec),
                 "chaos-spec");
    EXPECT_STREQ(sim::errorCodeName(sim::ErrorCode::kEventLimit),
                 "event-limit");
    EXPECT_STREQ(sim::errorCodeName(sim::ErrorCode::kNoProgress),
                 "no-progress");
    EXPECT_STREQ(sim::errorCodeName(sim::ErrorCode::kInvariant),
                 "invariant");
}

TEST(SimError, ThrowIfInvalidAggregatesViolations)
{
    EXPECT_NO_THROW(sim::throwIfInvalid({}, "ctx"));
    std::vector<sim::SimError> bad;
    bad.emplace_back(sim::ErrorCode::kConfigInvalid, "a is broken", "a");
    bad.emplace_back(sim::ErrorCode::kConfigInvalid, "b is broken", "b");
    try {
        sim::throwIfInvalid(bad, "MyConfig");
        FAIL() << "expected SimException";
    } catch (const sim::SimException &e) {
        EXPECT_EQ(e.code(), sim::ErrorCode::kConfigInvalid);
        EXPECT_NE(std::string(e.what()).find("a is broken"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("b is broken"),
                  std::string::npos);
    }
}

// ------------------------------------------------------------- ChaosSpec

TEST(ChaosSpec, EmptyTextIsInert)
{
    const sim::ChaosSpec spec = sim::ChaosSpec::parse("");
    EXPECT_FALSE(spec.any());
    EXPECT_EQ(spec.summary(), "none");
}

TEST(ChaosSpec, ParsesEveryClause)
{
    const sim::ChaosSpec spec = sim::ChaosSpec::parse(
        "seed=42;linkflap:period=1000,duty=0.25,prob=0.5;"
        "linkslow:factor=4,period=2000,duty=0.5;"
        "svclat:extra=300;"
        "pressure:pages=8,period=5000,start=10000;"
        "paflush:period=7000;"
        "padisable:start=100,end=900");
    EXPECT_TRUE(spec.any());
    EXPECT_EQ(spec.seed, 42u);
    EXPECT_EQ(spec.linkFlap.period, 1000u);
    EXPECT_DOUBLE_EQ(spec.linkFlap.duty, 0.25);
    EXPECT_DOUBLE_EQ(spec.linkFlap.prob, 0.5);
    EXPECT_EQ(spec.linkSlow.factor, 4u);
    EXPECT_EQ(spec.serviceDelay.extra, 300u);
    EXPECT_EQ(spec.pressure.pages, 8u);
    EXPECT_EQ(spec.pressure.start, 10000u);
    EXPECT_EQ(spec.paFlush.period, 7000u);
    EXPECT_EQ(spec.paDisable.start, 100u);
    EXPECT_EQ(spec.paDisable.end, 900u);
    EXPECT_EQ(spec.summary(),
              "linkflap+linkslow+svclat+pressure+paflush+padisable");
}

TEST(ChaosSpec, RejectsMalformedInputWithStructuredError)
{
    const char *bad[] = {
        "bogusclause:x=1",          // unknown clause
        "linkflap:bogus=1",         // unknown key
        "linkflap:duty=0.5",        // missing required period
        "linkflap:period=abc",      // not a number
        "linkflap:period=1,duty=2", // duty outside [0, 1]
        "pressure:pages=4",         // missing period
        "padisable:end=5",          // missing start
        "padisable:start=9,end=3",  // end before start
        "seed",                     // bare key
        "seed=18446744073709551616",             // overflows 64 bits
        "linkslow:factor=4294967297,period=1000,duty=0.5",  // > 2^32-1
        "pressure:pages=4294967296,period=100",  // > 2^32-1
        "store-bitflip:seed=1,flips=4294967296", // > 2^32-1
        "svclat:extra=18446744073709551615",     // > 2^32-1
        "svclat:extra=99999999999999999999",     // overflows 64 bits
    };
    for (const char *text : bad) {
        try {
            sim::ChaosSpec::parse(text);
            FAIL() << "accepted: " << text;
        } catch (const sim::SimException &e) {
            EXPECT_EQ(e.code(), sim::ErrorCode::kChaosSpec) << text;
        }
    }
}

TEST(ChaosSpec, AcceptsTheLargestValueEachFieldHolds)
{
    const sim::ChaosSpec spec = sim::ChaosSpec::parse(
        "seed=18446744073709551615;"
        "linkslow:factor=4294967295;"
        "svclat:extra=4294967295;"
        "pressure:pages=4294967295,period=18446744073709551615;"
        "store-bitflip:seed=1,flips=4294967295");
    EXPECT_EQ(spec.seed, 18446744073709551615ULL);
    EXPECT_EQ(spec.linkSlow.factor, 4294967295u);
    EXPECT_EQ(spec.serviceDelay.extra, 4294967295u);
    EXPECT_EQ(spec.pressure.pages, 4294967295u);
    EXPECT_EQ(spec.pressure.period, 18446744073709551615ULL);
    EXPECT_EQ(spec.storeBitflip.flips, 4294967295u);
}

// -------------------------------------------------- SystemConfig::validate

TEST(ConfigValidate, DefaultsAreClean)
{
    for (harness::PolicyKind kind :
         {harness::PolicyKind::kOnTouch, harness::PolicyKind::kGrit}) {
        EXPECT_TRUE(harness::makeConfig(kind, 4).validate().empty());
    }
}

TEST(ConfigValidate, CatchesEachBrokenKnob)
{
    using harness::PolicyKind;
    using harness::SystemConfig;
    auto expectBad = [](const SystemConfig &config,
                        const std::string &where) {
        const auto violations = config.validate();
        ASSERT_FALSE(violations.empty()) << where;
        bool found = false;
        for (const sim::SimError &v : violations)
            found |= v.context.find(where) != std::string::npos;
        EXPECT_TRUE(found) << "no violation mentions " << where;
    };

    SystemConfig c = harness::makeConfig(PolicyKind::kOnTouch, 4);
    c.numGpus = 0;
    expectBad(c, "numGpus");
    c.numGpus = 65;
    expectBad(c, "numGpus");

    c = harness::makeConfig(PolicyKind::kOnTouch, 4);
    c.geometry.baseSize = 0;
    expectBad(c, "geometry.baseSize");
    c.geometry.baseSize = 32;  // power of two, smaller than a line
    expectBad(c, "geometry.baseSize");
    c.geometry.baseSize = 12 * 1024;  // not a power of two
    expectBad(c, "geometry.baseSize");
    c = harness::makeConfig(PolicyKind::kOnTouch, 4);
    c.geometry.hugePages = true;
    c.geometry.hugeSize = c.geometry.baseSize;  // must exceed the base
    expectBad(c, "geometry.hugeSize");
    c.geometry.hugeSize = 2 * sim::kPageSize2M;
    c.geometry.promoteFaultThreshold = 0;
    expectBad(c, "geometry.promoteFaultThreshold");

    c = harness::makeConfig(PolicyKind::kOnTouch, 4);
    c.counterThreshold = 0;
    expectBad(c, "counterThreshold");

    c = harness::makeConfig(PolicyKind::kGrit, 4);
    c.grit.faultThreshold = 0;
    expectBad(c, "grit.faultThreshold");
}

TEST(ConfigValidate, SimulatorConstructionRejectsBrokenConfig)
{
    workload::WorkloadParams params;
    params.footprintDivisor = 512;
    params.intensity = 0.05;
    harness::SystemConfig config =
        harness::makeConfig(harness::PolicyKind::kOnTouch, 4);
    config.counterThreshold = 0;
    try {
        harness::runApp(workload::AppId::kBfs, config, params);
        FAIL() << "expected SimException";
    } catch (const sim::SimException &e) {
        EXPECT_EQ(e.code(), sim::ErrorCode::kConfigInvalid);
    }
}

TEST(ConfigValidate, SimulatorRejectsGpuCountMismatch)
{
    workload::WorkloadParams params;
    params.numGpus = 2;
    params.footprintDivisor = 512;
    params.intensity = 0.05;
    const workload::Workload workload =
        workload::makeWorkload(workload::AppId::kBfs, params);
    const harness::SystemConfig config =
        harness::makeConfig(harness::PolicyKind::kOnTouch, 4);
    try {
        harness::runWorkload(config, workload);
        FAIL() << "expected SimException";
    } catch (const sim::SimException &e) {
        EXPECT_EQ(e.code(), sim::ErrorCode::kConfigInvalid);
        EXPECT_NE(e.error().context.find(workload.name),
                  std::string::npos);
    }
}

// ----------------------------------------------------------- FaultInjector

TEST(FaultInjector, DecisionsAreAPureFunctionOfSeedAndTime)
{
    const sim::ChaosSpec spec = sim::ChaosSpec::parse(
        "seed=9;linkflap:period=1000,duty=0.3,prob=0.6");
    sim::FaultInjector a(spec);
    sim::FaultInjector b(spec);
    bool saw_down = false;
    bool saw_up = false;
    for (sim::Cycle t = 0; t < 50'000; t += 37) {
        const bool down = a.linkDown(0, 1, t);
        EXPECT_EQ(down, b.linkDown(0, 1, t));
        saw_down |= down;
        saw_up |= !down;
    }
    EXPECT_TRUE(saw_down);
    EXPECT_TRUE(saw_up);
}

TEST(FaultInjector, DifferentSeedsFlapDifferentWindows)
{
    sim::FaultInjector a(
        sim::ChaosSpec::parse("seed=1;linkflap:period=1000,prob=0.5"));
    sim::FaultInjector b(
        sim::ChaosSpec::parse("seed=2;linkflap:period=1000,prob=0.5"));
    int differing = 0;
    for (sim::Cycle t = 0; t < 200'000; t += 1000)
        differing += a.linkDown(0, 1, t) != b.linkDown(0, 1, t) ? 1 : 0;
    EXPECT_GT(differing, 10);
}

TEST(FaultInjector, LinkFlapRespectsDutyWindow)
{
    // prob=1: every window flaps, so the link must be down exactly
    // during the first duty fraction of each period.
    sim::FaultInjector inj(sim::ChaosSpec::parse(
        "linkflap:period=1000,duty=0.2,prob=1"));
    EXPECT_TRUE(inj.linkDown(0, 1, 0));
    EXPECT_TRUE(inj.linkDown(0, 1, 199));
    EXPECT_FALSE(inj.linkDown(0, 1, 200));
    EXPECT_FALSE(inj.linkDown(0, 1, 999));
    EXPECT_TRUE(inj.linkDown(0, 1, 1000));
}

TEST(FaultInjector, LinkSlowAndServiceDelayWindows)
{
    sim::FaultInjector inj(sim::ChaosSpec::parse(
        "linkslow:factor=8,period=100,duty=0.5;svclat:extra=250"));
    EXPECT_EQ(inj.linkSlowFactor(0, 1, 10), 8u);
    EXPECT_EQ(inj.linkSlowFactor(0, 1, 60), 1u);  // past the duty
    // period=0 means "always" for svclat.
    EXPECT_EQ(inj.extraServiceCycles(0), 250u);
    EXPECT_EQ(inj.extraServiceCycles(123'456), 250u);
}

TEST(FaultInjector, PaCacheWindowsAndOneShotFlush)
{
    sim::FaultInjector inj(sim::ChaosSpec::parse(
        "paflush:period=500;padisable:start=1000,end=2000"));
    EXPECT_FALSE(inj.paCacheDown(999));
    EXPECT_TRUE(inj.paCacheDown(1000));
    EXPECT_TRUE(inj.paCacheDown(1999));
    EXPECT_FALSE(inj.paCacheDown(2000));

    EXPECT_FALSE(inj.paFlushDue(100));  // window 0 never flushes
    EXPECT_TRUE(inj.paFlushDue(520));   // first query in window 1
    EXPECT_FALSE(inj.paFlushDue(530));  // once per window
    EXPECT_TRUE(inj.paFlushDue(1700));  // window 3
}

// ------------------------------------------------------- InvariantAuditor

/** Seeded random migrate/duplicate/collapse/evict/pressure sequences
 *  must leave the layers consistent: zero violations after every op
 *  batch. */
TEST(InvariantAuditor, PropertyRandomOpSequencesStayConsistent)
{
    for (std::uint64_t seed : {1ull, 7ull, 23ull}) {
        MiniSystem sys(4, /*capacity_pages=*/24);
        sys.usePolicy<policy::UniformPolicy>(policy::kDuplicationRule);
        sim::InvariantAuditor auditor(*sys.driver,
                                      harness::PolicyKind::kDuplication);
        sim::Rng rng(seed);
        sim::Cycle now = 1000;

        for (int op = 0; op < 400; ++op) {
            const sim::PageId page = rng.below(64);
            const sim::GpuId gpu =
                static_cast<sim::GpuId>(rng.below(4));
            const uvm::PageInfo *info =
                sys.driver->directory().find(page);
            const sim::GpuId owner =
                info != nullptr ? info->owner() : sim::kHostId;
            switch (rng.below(7)) {
              case 0:
                sys.driver->migratePage(
                    page, gpu, now, stats::LatencyKind::kPageMigration);
                break;
              case 1:
                // duplicatePage requires a non-owner, non-holder target.
                if (owner != gpu &&
                    (info == nullptr || !info->hasReplica(gpu)))
                    sys.driver->duplicatePage(page, gpu, now);
                break;
              case 2:
                sys.driver->handleFault(gpu, page, rng.chance(0.5),
                                        false, now);
                break;
              case 3:
                // mapRemote requires the target to hold no local copy.
                if (owner != gpu &&
                    (info == nullptr || !info->hasReplica(gpu)))
                    sys.driver->mapRemote(page, gpu, now);
                break;
              case 4:
                // Protection-fault path: write collapse of replicas.
                if (info != nullptr && info->touched())
                    sys.driver->handleFault(gpu, page, true, true, now);
                break;
              case 5:
                // Lane accesses fill the TLBs, so the audits also check
                // TLB coherence and the L1 shootdown filter.
                for (int i = 0; i < 16; ++i)
                    sys.gpu(static_cast<unsigned>(gpu))
                        .translate(static_cast<unsigned>(rng.below(4)),
                                   rng.below(64), false, now);
                break;
              default:
                sys.driver->injectCapacityPressure(gpu, 2, now);
                break;
            }
            now += 500;
            if (op % 50 == 49) {
                const auto violations = auditor.audit();
                for (const sim::SimError &v : violations)
                    ADD_FAILURE()
                        << "seed " << seed << " op " << op << ": "
                        << v.str();
                if (!violations.empty())
                    return;
            }
        }
        EXPECT_GT(auditor.audits(), 0u);
        EXPECT_EQ(auditor.violations(), 0u);
    }
}

TEST(InvariantAuditor, DetectsDeliberateDirectoryCorruption)
{
    MiniSystem sys(2);
    sys.usePolicy<policy::UniformPolicy>(policy::kOnTouchRule);
    sys.driver->handleFault(0, 10, false, false, 1000);
    sys.driver->handleFault(1, 20, false, false, 2000);

    sim::InvariantAuditor auditor(*sys.driver,
                                  harness::PolicyKind::kOnTouch);
    EXPECT_TRUE(auditor.audit().empty());

    // Corrupt: claim GPU 1 holds a replica it never allocated.
    sys.driver->directory().info(10).addReplica(1);
    const auto violations = auditor.audit();
    ASSERT_FALSE(violations.empty());
    EXPECT_EQ(violations.front().code, sim::ErrorCode::kInvariant);
    bool mentions_replica = false;
    for (const sim::SimError &v : violations)
        mentions_replica |=
            v.message.find("replica") != std::string::npos;
    EXPECT_TRUE(mentions_replica);
    EXPECT_EQ(auditor.violations(), violations.size());
}

TEST(InvariantAuditor, DetectsPageTableResidencyDrift)
{
    MiniSystem sys(2);
    sys.usePolicy<policy::UniformPolicy>(policy::kOnTouchRule);
    sys.driver->handleFault(0, 5, false, false, 1000);

    // Corrupt: install a local PTE for a page with no frame behind it.
    sys.gpu(1).pageTable().install(99, mem::MappingKind::kLocal, 1,
                                   false);
    sim::InvariantAuditor auditor(*sys.driver,
                                  harness::PolicyKind::kOnTouch);
    const auto violations = auditor.audit();
    ASSERT_FALSE(violations.empty());
    EXPECT_EQ(violations.front().code, sim::ErrorCode::kInvariant);
}

/** True when @p violations holds one whose message is exactly @p what
 *  (other audit passes may fire on the same corruption). */
bool
reports(const std::vector<sim::SimError> &violations,
        const std::string &what)
{
    return std::any_of(violations.begin(), violations.end(),
                       [&](const sim::SimError &v) {
                           return v.message == what;
                       });
}

TEST(InvariantAuditor, DetectsATlbEntryThatSurvivedItsPteShootdown)
{
    MiniSystem sys(2);
    sys.usePolicy<policy::UniformPolicy>(policy::kOnTouchRule);
    sys.driver->handleFault(0, 10, false, false, 1000);
    gpu::Gpu &g = sys.gpu(0);
    ASSERT_FALSE(g.translate(0, 10, false, 2000).fault);
    sim::InvariantAuditor auditor(*sys.driver,
                                  harness::PolicyKind::kOnTouch);
    EXPECT_TRUE(auditor.audit().empty());

    // Corrupt: drop the PTE without Gpu::invalidatePage's shootdown, so
    // lane 0's L1 entry and the L2 entry outlive it.
    g.pageTable().invalidate(10);
    const auto violations = auditor.audit();
    EXPECT_TRUE(reports(violations,
                        "live gpu0.l1tlb.0 entry survived the PTE "
                        "shootdown"));
    EXPECT_TRUE(reports(violations,
                        "live gpu0.l2tlb entry survived the PTE shootdown"));
}

TEST(InvariantAuditor, DetectsAReplicaHolderListedTwice)
{
    MiniSystem sys(2);
    sys.usePolicy<policy::UniformPolicy>(policy::kOnTouchRule);
    sys.driver->handleFault(0, 10, false, false, 1000);
    sys.driver->duplicatePage(10, 1, 2000);
    sim::InvariantAuditor auditor(*sys.driver,
                                  harness::PolicyKind::kOnTouch);
    EXPECT_TRUE(auditor.audit().empty());

    // Corrupt: list GPU 1's (real, frame-backed) replica a second time.
    sys.driver->directory().info(10).appendReplica(1);
    EXPECT_TRUE(reports(auditor.audit(), "gpu1 listed twice as replica"));
}

TEST(InvariantAuditor, ShootdownFilterAuditHoldsAcrossDisplacement)
{
    // Lane 0 touches twice as many mapped pages as its L1 TLB holds, so
    // half its fills displace a live entry. The filter must drop those
    // and the audit, which checks it both ways, must stay clean.
    MiniSystem sys(2);
    sys.usePolicy<policy::UniformPolicy>(policy::kOnTouchRule);
    gpu::Gpu &g = sys.gpu(0);
    const unsigned entries = gpu::kL1TlbEntries;
    sim::Cycle now = 1000;
    for (sim::PageId page = 0; page < 2 * entries; ++page, now += 500)
        sys.driver->handleFault(0, page, false, false, now);
    for (sim::PageId page = 0; page < 2 * entries; ++page)
        ASSERT_FALSE(g.translate(0, page, false, now).fault) << page;

    sim::InvariantAuditor auditor(*sys.driver,
                                  harness::PolicyKind::kOnTouch);
    for (const sim::SimError &v : auditor.audit())
        ADD_FAILURE() << v.str();
    EXPECT_EQ(g.l1Holders().size(), entries);
}

// ------------------------------------------------------ chaos end to end

TEST(ChaosEndToEnd, PerturbedRunCompletesRecoversAndStaysConsistent)
{
    workload::WorkloadParams params;
    params.footprintDivisor = 256;
    params.intensity = 0.1;
    harness::SystemConfig config =
        harness::makeConfig(harness::PolicyKind::kGrit, 4);
    config.chaos = sim::ChaosSpec::parse(
        "seed=5;linkflap:period=20000,duty=0.2;"
        "pressure:pages=4,period=50000;paflush:period=40000");
    config.audit = true;

    const harness::RunResult r =
        harness::runApp(workload::AppId::kBfs, config, params);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_TRUE(r.auditFindings.empty());

    auto counter = [&r](const std::string &name) {
        for (const auto &[k, v] : r.counters)
            if (k == name)
                return v;
        return std::uint64_t{0};
    };
    EXPECT_GT(counter("chaos.injected"), 0u);
    EXPECT_GT(counter("chaos.recovered"), 0u);
    EXPECT_GT(counter("audit.audits"), 0u);
    EXPECT_EQ(counter("audit.violations"), 0u);

    // Same spec, same seed: the chaos run is fully reproducible.
    const harness::RunResult again =
        harness::runApp(workload::AppId::kBfs, config, params);
    EXPECT_EQ(r.cycles, again.cycles);
    EXPECT_EQ(r.counters, again.counters);
}

TEST(ChaosEndToEnd, PaCacheLossFallsBackToPaTable)
{
    workload::WorkloadParams params;
    params.footprintDivisor = 256;
    params.intensity = 0.1;
    harness::SystemConfig config =
        harness::makeConfig(harness::PolicyKind::kGrit, 4);
    config.chaos = sim::ChaosSpec::parse("padisable:start=0");
    config.audit = true;

    const harness::RunResult r =
        harness::runApp(workload::AppId::kBfs, config, params);
    EXPECT_TRUE(r.auditFindings.empty());
    std::uint64_t fallbacks = 0;
    for (const auto &[k, v] : r.counters)
        if (k == "chaos.pa_table_fallbacks")
            fallbacks = v;
    EXPECT_GT(fallbacks, 0u);
}

}  // namespace
}  // namespace grit
