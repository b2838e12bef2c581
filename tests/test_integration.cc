/** @file Integration tests: full simulations of scaled-down workloads
 *  under every policy, checking cross-module invariants and the
 *  paper-level qualitative results. */

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "harness/experiment_engine.h"
#include "workload/apps.h"

namespace grit::harness {
namespace {

/** Small fast workload parameters for integration runs. */
workload::WorkloadParams
fastParams()
{
    workload::WorkloadParams params;
    params.footprintDivisor = 32;
    params.intensity = 0.5;
    return params;
}

/** All selectable policies. */
const std::vector<PolicyKind> kAllPolicies = {
    PolicyKind::kOnTouch,    PolicyKind::kAccessCounter,
    PolicyKind::kDuplication, PolicyKind::kFirstTouch,
    PolicyKind::kIdeal,       PolicyKind::kGrit,
    PolicyKind::kGriffinDpc,  PolicyKind::kGps,
};

class EveryPolicy : public ::testing::TestWithParam<PolicyKind>
{
};

TEST_P(EveryPolicy, CompletesGemmWithSaneResults)
{
    const SystemConfig config = makeConfig(GetParam(), 4);
    const RunResult result =
        runApp(workload::AppId::kGemm, config, fastParams());
    EXPECT_GT(result.cycles, 0u);
    EXPECT_GT(result.accesses, 0u);
    EXPECT_GT(result.totalFaults(), 0u);
    EXPECT_GT(result.breakdown.total(), 0u);
}

TEST_P(EveryPolicy, DeterministicAcrossRuns)
{
    const SystemConfig config = makeConfig(GetParam(), 2);
    workload::WorkloadParams params = fastParams();
    params.numGpus = 2;
    const workload::Workload w =
        workload::makeWorkload(workload::AppId::kBs, params);
    const RunResult a = runWorkload(config, w);
    const RunResult b = runWorkload(config, w);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.totalFaults(), b.totalFaults());
}

INSTANTIATE_TEST_SUITE_P(
    Policies, EveryPolicy, ::testing::ValuesIn(kAllPolicies),
    [](const ::testing::TestParamInfo<PolicyKind> &info) {
        std::string name = policyKindName(info.param);
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

TEST(Integration, SchemeMechanismCountersMatchPolicy)
{
    const auto params = fastParams();

    // On-touch migrates, never duplicates.
    auto ot = runApp(workload::AppId::kSt,
                     makeConfig(PolicyKind::kOnTouch, 4), params);
    auto get = [](const RunResult &r, const char *name) {
        for (const auto &[k, v] : r.counters)
            if (k == name)
                return v;
        return std::uint64_t{0};
    };
    EXPECT_GT(get(ot, "uvm.migrations") + get(ot, "uvm.host_migrations"),
              0u);
    EXPECT_EQ(get(ot, "uvm.duplications"), 0u);
    EXPECT_EQ(get(ot, "uvm.collapses"), 0u);

    // Duplication replicates and collapses, never counter-migrates.
    auto dup = runApp(workload::AppId::kSt,
                      makeConfig(PolicyKind::kDuplication, 4), params);
    EXPECT_GT(get(dup, "uvm.duplications"), 0u);
    EXPECT_GT(get(dup, "uvm.collapses"), 0u);
    EXPECT_EQ(get(dup, "uvm.counter_migrations"), 0u);

    // Access counter maps remote and issues counter migrations.
    auto ac = runApp(workload::AppId::kSt,
                     makeConfig(PolicyKind::kAccessCounter, 4), params);
    EXPECT_GT(get(ac, "uvm.remote_maps"), 0u);
    EXPECT_GT(get(ac, "sim.remote_accesses"), 0u);
}

TEST(Integration, IdealIsFastest)
{
    const auto params = fastParams();
    for (workload::AppId app :
         {workload::AppId::kGemm, workload::AppId::kFir}) {
        const auto ideal =
            runApp(app, makeConfig(PolicyKind::kIdeal, 4), params);
        for (PolicyKind kind :
             {PolicyKind::kOnTouch, PolicyKind::kAccessCounter,
              PolicyKind::kDuplication, PolicyKind::kGrit}) {
            const auto other = runApp(app, makeConfig(kind, 4), params);
            EXPECT_LE(ideal.cycles, other.cycles)
                << workload::appMeta(app).abbr << " vs "
                << policyKindName(kind);
        }
    }
}

TEST(Integration, GritChangesSchemesAtRuntime)
{
    const auto result = runApp(workload::AppId::kGemm,
                               makeConfig(PolicyKind::kGrit, 4),
                               fastParams());
    auto get = [&](const char *name) {
        for (const auto &[k, v] : result.counters)
            if (k == name)
                return v;
        return std::uint64_t{0};
    };
    EXPECT_GT(get("grit.triggers"), 0u);
    EXPECT_GT(get("grit.changes_to_duplication"), 0u);
    // GEMM's read-shared inputs end up under duplication (Fig. 19).
    const auto dup_accesses = result.schemeAccesses[static_cast<unsigned>(
        mem::Scheme::kDuplication)];
    EXPECT_GT(dup_accesses, 0u);
}

TEST(Integration, GritBeatsAccessCounterAndDuplicationOnAverage)
{
    // The headline claim at reduced scale: GRIT's mean speedup over the
    // uniform schemes is positive (paper: +60 % / +49 % / +29 %).
    const auto params = fastParams();
    std::vector<LabeledConfig> configs = {
        {"access-counter", makeConfig(PolicyKind::kAccessCounter, 4)},
        {"duplication", makeConfig(PolicyKind::kDuplication, 4)},
        {"grit", makeConfig(PolicyKind::kGrit, 4)},
    };
    const RunPlan plan = RunPlan::matrix(
        {workload::AppId::kBfs, workload::AppId::kGemm,
         workload::AppId::kFir, workload::AppId::kBs},
        configs, params);
    const ResultMatrix matrix =
        ExperimentEngine().runResilient(plan, ResilientOptions{}).matrix;
    EXPECT_GT(meanImprovementPct(matrix, "access-counter", "grit"), 0.0);
    EXPECT_GT(meanImprovementPct(matrix, "duplication", "grit"), 0.0);
}

TEST(Integration, TwoMbPagesReduceFaultsButMixAttributes)
{
    workload::WorkloadParams params = fastParams();
    SystemConfig small = makeConfig(PolicyKind::kOnTouch, 4);
    SystemConfig large = makeConfig(PolicyKind::kOnTouch, 4);
    large.geometry.baseSize = 64 * 1024;

    const workload::Workload w =
        workload::makeWorkload(workload::AppId::kGemm, params);
    const auto small_run = runWorkload(small, w);
    const auto large_run = runWorkload(large, w);
    // Fewer, bigger pages -> fewer faults.
    EXPECT_LT(large_run.totalFaults(), small_run.totalFaults());
}

TEST(Integration, PrefetcherReducesColdFaults)
{
    const auto params = fastParams();
    SystemConfig base = makeConfig(PolicyKind::kOnTouch, 4);
    SystemConfig with_pf = base;
    with_pf.prefetch = true;
    auto get = [](const RunResult &r, const char *name) {
        for (const auto &[k, v] : r.counters)
            if (k == name)
                return v;
        return std::uint64_t{0};
    };
    const auto plain = runApp(workload::AppId::kFir, base, params);
    const auto fetched = runApp(workload::AppId::kFir, with_pf, params);
    EXPECT_GT(get(fetched, "uvm.prefetches"), 0u);
    EXPECT_LT(get(fetched, "uvm.cold_migrations"),
              get(plain, "uvm.cold_migrations"));
}

TEST(Integration, DnnWorkloadsRunUnderGrit)
{
    workload::WorkloadParams params = fastParams();
    params.numGpus = 4;
    for (workload::AppId model : workload::kDnnModels) {
        const workload::Workload w = workload::makeWorkload(model, params);
        const auto result =
            runWorkload(makeConfig(PolicyKind::kGrit, 4), w);
        EXPECT_GT(result.cycles, 0u);
        EXPECT_GT(result.totalFaults(), 0u);
    }
}

TEST(Integration, GpuCountScalesSystem)
{
    for (unsigned gpus : {2u, 8u}) {
        workload::WorkloadParams params = fastParams();
        params.numGpus = gpus;
        const auto result = runApp(workload::AppId::kC2d,
                                   makeConfig(PolicyKind::kGrit, gpus),
                                   params);
        EXPECT_GT(result.cycles, 0u);
    }
}

TEST(Integration, BreakdownCategoriesMatchScheme)
{
    const auto params = fastParams();
    const auto ot = runApp(workload::AppId::kBs,
                           makeConfig(PolicyKind::kOnTouch, 4), params);
    EXPECT_GT(ot.breakdown.get(stats::LatencyKind::kPageMigration), 0u);
    EXPECT_EQ(ot.breakdown.get(stats::LatencyKind::kPageDuplication),
              0u);
    EXPECT_EQ(ot.breakdown.get(stats::LatencyKind::kWriteCollapse), 0u);

    const auto dup =
        runApp(workload::AppId::kBs,
               makeConfig(PolicyKind::kDuplication, 4), params);
    EXPECT_GT(dup.breakdown.get(stats::LatencyKind::kPageDuplication),
              0u);
    EXPECT_GT(dup.breakdown.get(stats::LatencyKind::kWriteCollapse), 0u);
    EXPECT_EQ(dup.breakdown.get(stats::LatencyKind::kPageMigration), 0u);

    const auto ac =
        runApp(workload::AppId::kBs,
               makeConfig(PolicyKind::kAccessCounter, 4), params);
    EXPECT_GT(ac.breakdown.get(stats::LatencyKind::kRemoteAccess), 0u);
}

}  // namespace
}  // namespace grit::harness
