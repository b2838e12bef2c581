/** @file Tests for streaming trace generation (workload/trace_stream.h):
 *  chunked streams must reproduce materialized traces byte for byte at
 *  any chunk size, replay deterministically from any chunk boundary,
 *  stay bounded under the chunk LRU's byte budget, generate each
 *  shared chunk once however many threads ask for it, and drive the
 *  simulator to bit-identical results — with access batching on or
 *  off. */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "harness/config.h"
#include "harness/simulator.h"
#include "workload/apps.h"
#include "workload/dnn.h"
#include "workload/generators.h"
#include "workload/trace_cache.h"
#include "workload/trace_stream.h"

namespace grit::workload {
namespace {

/** Small, fast parameters shared by every test in this file. */
WorkloadParams
smallParams()
{
    WorkloadParams params;
    params.numGpus = 4;
    params.footprintDivisor = 128;
    params.intensity = 0.2;
    return params;
}

/** Drain @p stream fully and return the flattened access sequence. */
GpuTrace
drain(TraceStream &stream)
{
    GpuTrace all;
    while (ChunkHandle chunk = stream.next()) {
        all.insert(all.end(), chunk->accesses.begin(),
                   chunk->accesses.end());
    }
    return all;
}

void
expectSameTrace(const GpuTrace &a, const GpuTrace &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].addr, b[i].addr) << "access " << i;
        ASSERT_EQ(a[i].write, b[i].write) << "access " << i;
    }
}

// ------------------------------------------------- generated streams

TEST(GeneratedTraceStream, MatchesMaterializedAtAnyChunkSize)
{
    const WorkloadParams params = smallParams();
    const Workload w = makeWorkload(AppId::kGemm, params);
    for (const std::uint64_t chunk_accesses :
         {std::uint64_t{1}, std::uint64_t{7}, std::uint64_t{1} << 20}) {
        for (unsigned g = 0; g < params.numGpus; ++g) {
            GeneratedTraceStream stream(
                [params](TraceSink &sink) {
                    generateTrace(AppId::kGemm, params, sink);
                },
                g, chunk_accesses);
            expectSameTrace(drain(stream), w.traces[g]);
        }
    }
}

TEST(GeneratedTraceStream, ChunksAreFramedAndIndexed)
{
    const WorkloadParams params = smallParams();
    const Workload w = makeWorkload(AppId::kFir, params);
    GeneratedTraceStream stream(
        [params](TraceSink &sink) {
            generateTrace(AppId::kFir, params, sink);
        },
        0, 100);
    std::uint64_t index = 0;
    std::uint64_t seen = 0;
    while (ChunkHandle chunk = stream.next()) {
        EXPECT_EQ(chunk->index, index);
        EXPECT_EQ(chunk->firstAccess, index * 100);
        if (seen + chunk->accesses.size() < w.traces[0].size()) {
            EXPECT_EQ(chunk->accesses.size(), 100u);  // only last is short
        }
        seen += chunk->accesses.size();
        ++index;
    }
    EXPECT_EQ(seen, w.traces[0].size());
}

TEST(GeneratedTraceStream, SeekReplaysFromAnyChunkBoundary)
{
    const WorkloadParams params = smallParams();
    auto gen = [params](TraceSink &sink) {
        generateTrace(AppId::kBfs, params, sink);
    };
    GeneratedTraceStream stream(gen, 1, 64);

    std::vector<ChunkHandle> first_pass;
    for (unsigned i = 0; i < 6; ++i) {
        ChunkHandle chunk = stream.next();
        ASSERT_NE(chunk, nullptr);
        first_pass.push_back(chunk);
    }

    // Backward seek regenerates; forward seek skips.
    stream.seek(2);
    for (unsigned i = 2; i < 6; ++i) {
        ChunkHandle replay = stream.next();
        ASSERT_NE(replay, nullptr);
        expectSameTrace(replay->accesses, first_pass[i]->accesses);
    }
    stream.seek(5);
    ChunkHandle skipped_to = stream.next();
    ASSERT_NE(skipped_to, nullptr);
    expectSameTrace(skipped_to->accesses, first_pass[5]->accesses);

    // A fresh stream starting mid-trace agrees too.
    GeneratedTraceStream late(gen, 1, 64, 4, /*first_chunk=*/3);
    ChunkHandle chunk = late.next();
    ASSERT_NE(chunk, nullptr);
    EXPECT_EQ(chunk->index, 3u);
    expectSameTrace(chunk->accesses, first_pass[3]->accesses);
}

TEST(GeneratedTraceStream, CoversDnnAndScaleGenerators)
{
    const WorkloadParams params = smallParams();
    const Workload dnn = makeDnnWorkload(DnnModel::kVgg16, params);
    for (unsigned g = 0; g < params.numGpus; ++g) {
        GeneratedTraceStream stream(
            [params](TraceSink &sink) {
                generateDnnTrace(DnnModel::kVgg16, params, sink);
            },
            g, 1000);
        expectSameTrace(drain(stream), dnn.traces[g]);
    }

    ScaleParams sp;
    sp.pages = 4096;
    sp.randomPerGpu = 2048;
    sp.sharedPerGpu = 512;
    const Workload scale = makeScaleWorkload(sp);
    ASSERT_EQ(scale.numGpus(), sp.numGpus);
    EXPECT_EQ(scale.footprintGenPages, sp.pages);
    for (unsigned g = 0; g < sp.numGpus; ++g) {
        GeneratedTraceStream stream(
            [sp](TraceSink &sink) { generateScaleTrace(sp, sink); }, g,
            777);
        expectSameTrace(drain(stream), scale.traces[g]);
    }
}

TEST(CountingSink, CountsMatchMaterializedSizes)
{
    const WorkloadParams params = smallParams();
    const Workload w = makeWorkload(AppId::kSc, params);
    CountingSink sink(params.numGpus);
    generateTrace(AppId::kSc, params, sink);
    ASSERT_EQ(sink.counts().size(), params.numGpus);
    for (unsigned g = 0; g < params.numGpus; ++g)
        EXPECT_EQ(sink.counts()[g], w.traces[g].size());
}

// --------------------------------------------------- chunk LRU cache

TEST(TraceCacheStreaming, OpenWorkloadMatchesMaterialized)
{
    const WorkloadParams params = smallParams();
    const Workload w = makeWorkload(AppId::kC2d, params);

    TraceCache cache;
    StreamedWorkload sw =
        cache.openWorkload(AppId::kC2d, params, 500);
    ASSERT_EQ(sw.streams.size(), params.numGpus);
    ASSERT_EQ(sw.accesses.size(), params.numGpus);
    EXPECT_EQ(sw.totalAccesses(), w.totalAccesses());
    EXPECT_EQ(sw.meta.name, w.name);
    EXPECT_EQ(sw.meta.footprintGenPages, w.footprintGenPages);
    for (unsigned g = 0; g < params.numGpus; ++g) {
        EXPECT_EQ(sw.accesses[g], w.traces[g].size());
        expectSameTrace(drain(*sw.streams[g]), w.traces[g]);
    }
    EXPECT_GT(cache.hits() + cache.misses(), 0u);
}

TEST(TraceCacheStreaming, TinyBudgetEvictsWithoutChangingResults)
{
    const WorkloadParams params = smallParams();
    const Workload w = makeWorkload(AppId::kGemm, params);

    TraceCache cache;
    // A budget of a few chunks: far below the whole trace, so serving
    // all GPUs sequentially must cycle the LRU.
    cache.setByteBudget(16 * 1024);
    StreamedWorkload sw = cache.openWorkload(AppId::kGemm, params, 200);
    for (unsigned g = 0; g < params.numGpus; ++g)
        expectSameTrace(drain(*sw.streams[g]), w.traces[g]);
    EXPECT_GT(cache.evictions(), 0u);
    EXPECT_LE(cache.bytes(), 16u * 1024u);

    // Replaying an already-evicted range regenerates the same bytes.
    sw.streams[0]->seek(0);
    expectSameTrace(drain(*sw.streams[0]), w.traces[0]);
}

TEST(TraceCacheStreaming, ConcurrentConsumersShareOneGeneration)
{
    // Two consumers per GPU drain their streams at once. Each chunk
    // (and each end-of-stream marker) is generated once: the second
    // consumer of a chunk either hits it or waits for the first one's
    // generation, so hits equal misses exactly.
    const WorkloadParams params = smallParams();
    const Workload w = makeWorkload(AppId::kSt, params);
    constexpr std::uint64_t kChunk = 300;
    const unsigned consumers = 2 * params.numGpus;

    TraceCache cache;
    std::vector<GpuTrace> seen(consumers);
    {
        std::vector<std::jthread> pool;
        for (unsigned t = 0; t < consumers; ++t) {
            pool.emplace_back([&, t] {
                auto stream = cache.openStream(AppId::kSt, params,
                                               t % params.numGpus, kChunk);
                seen[t] = drain(*stream);
            });
        }
    }
    std::uint64_t entries = 0;
    for (unsigned g = 0; g < params.numGpus; ++g)
        entries += (w.traces[g].size() + kChunk - 1) / kChunk + 1;
    for (unsigned t = 0; t < consumers; ++t)
        expectSameTrace(seen[t], w.traces[t % params.numGpus]);
    EXPECT_EQ(cache.misses(), entries);
    EXPECT_EQ(cache.hits(), entries);
    EXPECT_EQ(cache.size(), entries);
}

TEST(TraceCacheStreaming, FailedGenerationIsDroppedAndRethrown)
{
    // A chunk too large to allocate makes its generation throw. Every
    // consumer that asked for it sees the error, whether it generated
    // the chunk or waited for another consumer's generation, and
    // nothing stays cached, so a later request tries again.
    const WorkloadParams params = smallParams();
    const std::uint64_t huge = std::uint64_t{1} << 62;
    TraceCache cache;
    std::atomic<unsigned> failures{0};
    {
        std::vector<std::jthread> pool;
        for (unsigned t = 0; t < 4; ++t) {
            pool.emplace_back([&] {
                auto stream = cache.openStream(AppId::kGemm, params, 0, huge);
                try {
                    stream->next();
                } catch (const std::length_error &) {
                    failures.fetch_add(1);
                }
            });
        }
    }
    EXPECT_EQ(failures.load(), 4u);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.bytes(), 0u);

    const std::uint64_t misses = cache.misses();
    auto stream = cache.openStream(AppId::kGemm, params, 0, huge);
    EXPECT_THROW(stream->next(), std::length_error);
    EXPECT_EQ(cache.misses(), misses + 1);
}

// ------------------------------------------------ streamed simulation

/** Fields that must agree for two runs to count as identical. */
void
expectSameResult(const harness::RunResult &a, const harness::RunResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.localFaults, b.localFaults);
    EXPECT_EQ(a.protectionFaults, b.protectionFaults);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.peakReplicas, b.peakReplicas);
    EXPECT_EQ(a.schemeAccesses, b.schemeAccesses);
    ASSERT_EQ(a.counters.size(), b.counters.size());
    for (std::size_t i = 0; i < a.counters.size(); ++i) {
        EXPECT_EQ(a.counters[i].first, b.counters[i].first);
        EXPECT_EQ(a.counters[i].second, b.counters[i].second)
            << a.counters[i].first;
    }
}

TEST(StreamedSimulator, BitIdenticalToMaterialized)
{
    const WorkloadParams params = smallParams();
    const auto w = std::make_shared<const Workload>(
        makeWorkload(AppId::kBfs, params));
    harness::SystemConfig config;
    config.numGpus = params.numGpus;

    harness::Simulator materialized(config, streamWorkload(w));
    const harness::RunResult ref = materialized.run();

    TraceCache cache;
    harness::Simulator streamed(
        config, cache.openWorkload(AppId::kBfs, params, 300));
    expectSameResult(streamed.run(), ref);
}

TEST(StreamedSimulator, BatchingTogglesWithoutChangingResults)
{
    const WorkloadParams params = smallParams();
    const auto w = std::make_shared<const Workload>(
        makeWorkload(AppId::kGemm, params));
    harness::SystemConfig config;
    config.numGpus = params.numGpus;

    config.batchAccesses = false;
    harness::Simulator plain(config, streamWorkload(w));
    const harness::RunResult ref = plain.run();
    EXPECT_EQ(ref.accessesBatched, 0u);

    config.batchAccesses = true;
    harness::Simulator batched(config, streamWorkload(w));
    const harness::RunResult result = batched.run();
    expectSameResult(result, ref);
    // Batching must actually engage (the drain tail alone guarantees
    // inline-eligible completions) and pay in executed events.
    EXPECT_GT(result.accessesBatched, 0u);
    EXPECT_EQ(result.eventsExecuted + result.accessesBatched,
              ref.eventsExecuted);
}

}  // namespace
}  // namespace grit::workload
