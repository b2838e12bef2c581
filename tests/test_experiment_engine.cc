/** @file Tests for the parallel ExperimentEngine and the TraceCache:
 *  thread-count-independent determinism, plan construction, and trace
 *  sharing. */

#include <gtest/gtest.h>

#include <string>

#include "harness/experiment.h"
#include "harness/experiment_engine.h"
#include "workload/trace_cache.h"

namespace grit::harness {
namespace {

/** Small fast workload parameters. */
workload::WorkloadParams
fastParams()
{
    workload::WorkloadParams params;
    params.footprintDivisor = 64;
    params.intensity = 0.25;
    return params;
}

/** The 2-app x 3-config plan the determinism test sweeps. */
std::pair<std::vector<workload::AppId>, std::vector<LabeledConfig>>
smallSweep()
{
    const std::vector<workload::AppId> apps = {workload::AppId::kGemm,
                                               workload::AppId::kSt};
    const std::vector<LabeledConfig> configs = {
        {"on-touch", makeConfig(PolicyKind::kOnTouch, 4)},
        {"duplication", makeConfig(PolicyKind::kDuplication, 4)},
        {"grit", makeConfig(PolicyKind::kGrit, 4)},
    };
    return {apps, configs};
}

/** Full field-wise RunResult comparison. */
void
expectSameResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.localFaults, b.localFaults);
    EXPECT_EQ(a.protectionFaults, b.protectionFaults);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.peakReplicas, b.peakReplicas);
    EXPECT_EQ(a.schemeAccesses, b.schemeAccesses);
    for (unsigned k = 0; k < stats::kLatencyKinds; ++k) {
        const auto kind = static_cast<stats::LatencyKind>(k);
        EXPECT_EQ(a.breakdown.get(kind), b.breakdown.get(kind));
    }
    EXPECT_EQ(a.counters, b.counters);
}

TEST(ExperimentEngine, ThreadCountDoesNotChangeResults)
{
    const auto [apps, configs] = smallSweep();

    const RunPlan plan = RunPlan::matrix(apps, configs, fastParams());

    ExperimentEngine::Options serial;
    serial.jobs = 1;
    const ResultMatrix m1 =
        ExperimentEngine(serial).runResilient(plan, {}).matrix;

    ExperimentEngine::Options parallel;
    parallel.jobs = 4;
    const ResultMatrix m4 =
        ExperimentEngine(parallel).runResilient(plan, {}).matrix;

    ASSERT_EQ(m1.size(), 2u);
    ASSERT_EQ(m1.size(), m4.size());
    for (const auto &[row, runs] : m1) {
        ASSERT_TRUE(m4.count(row)) << row;
        ASSERT_EQ(runs.size(), m4.at(row).size());
        for (const auto &[label, result] : runs) {
            SCOPED_TRACE(row + "/" + label);
            ASSERT_TRUE(m4.at(row).count(label));
            expectSameResult(result, m4.at(row).at(label));
        }
    }
}

TEST(ExperimentEngine, SharesTracesAcrossConfigs)
{
    // The unit of sharing is the chunk. Each cell opens one stream per
    // GPU; the workload is small enough to fit one chunk, so the first
    // config of each app generates gpus chunks and every other config's
    // streams hit them — or wait for them while they are still being
    // generated, so the counts are exact at any worker count.
    const auto [apps, configs] = smallSweep();
    const std::size_t gpus = configs.front().config.numGpus;
    for (const unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        ExperimentEngine::Options options;
        options.jobs = jobs;
        ExperimentEngine engine(options);
        engine.runResilient(RunPlan::matrix(apps, configs, fastParams()),
                            ResilientOptions{});
        EXPECT_EQ(engine.traceCache().misses(), apps.size() * gpus);
        EXPECT_EQ(engine.traceCache().hits(),
                  apps.size() * gpus * (configs.size() - 1));
    }
}

TEST(ExperimentEngine, JobsResolution)
{
    ExperimentEngine::Options options;
    options.jobs = 3;
    EXPECT_EQ(ExperimentEngine(options).jobs(), 3u);
    EXPECT_GE(ExperimentEngine().jobs(), 1u);
    EXPECT_GE(defaultJobs(), 1u);
}

TEST(RunPlan, MatrixCrossProductAndRowLabels)
{
    const auto [apps, configs] = smallSweep();
    const RunPlan plan = RunPlan::matrix(apps, configs, fastParams());
    ASSERT_EQ(plan.size(), apps.size() * configs.size());
    EXPECT_EQ(plan.cells()[0].row, "GEMM");
    EXPECT_EQ(plan.cells()[0].label, "on-touch");
    // numGpus follows the configuration, not the input params.
    for (const RunCell &cell : plan.cells())
        EXPECT_EQ(cell.params.numGpus, cell.config.numGpus);
}

/** First chunk of GPU 0's trace of @p app, fetched through @p cache. */
workload::ChunkHandle
firstChunk(workload::TraceCache &cache, workload::AppId app,
           const workload::WorkloadParams &params)
{
    return cache.openStream(app, params, 0, workload::kDefaultChunkAccesses)
        ->next();
}

TEST(TraceCache, ReusesGeneratedTraces)
{
    workload::TraceCache cache;
    const auto params = fastParams();

    const auto a = firstChunk(cache, workload::AppId::kGemm, params);
    const auto b = firstChunk(cache, workload::AppId::kGemm, params);
    ASSERT_TRUE(a);
    EXPECT_EQ(a.get(), b.get());  // same shared instance
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.size(), 1u);

    // A different key generates its own chunk.
    workload::WorkloadParams other = params;
    other.seed = 99;
    const auto c = firstChunk(cache, workload::AppId::kGemm, other);
    EXPECT_NE(a.get(), c.get());
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(TraceCache, ClearKeepsHandlesValid)
{
    workload::TraceCache cache;
    const auto handle = firstChunk(cache, workload::AppId::kBs, fastParams());
    ASSERT_TRUE(handle);
    const std::size_t accesses = handle->accesses.size();
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(handle->accesses.size(), accesses);  // still alive
    // The next fetch regenerates (a fresh miss) and matches
    // deterministically.
    const auto again = firstChunk(cache, workload::AppId::kBs, fastParams());
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_NE(again.get(), handle.get());
    ASSERT_EQ(again->accesses.size(), accesses);
    for (std::size_t i = 0; i < accesses; ++i) {
        ASSERT_EQ(again->accesses[i].addr, handle->accesses[i].addr);
        ASSERT_EQ(again->accesses[i].write, handle->accesses[i].write);
    }
}

}  // namespace
}  // namespace grit::harness
