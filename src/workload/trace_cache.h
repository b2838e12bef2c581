/**
 * @file
 * Shared, byte-budgeted LRU cache of generated trace chunks.
 *
 * An experiment sweep replays the same (app, params) trace under many
 * system configurations. Generation is deterministic, so each GPU's
 * trace is generated once as fixed-size TraceChunks and shared
 * read-only across every cell — and across worker threads, since a
 * chunk is immutable once generated.
 *
 * Single flight: the first consumer to miss a chunk claims its slot and
 * generates it; consumers that ask for the same chunk meanwhile wait
 * for that one generation instead of duplicating it, so the hit and
 * miss counts of a sweep do not depend on thread timing. A failed
 * generation is dropped (a later request retries) and rethrown to every
 * waiter.
 *
 * Memory is bounded: an optional byte budget (setByteBudget, or the
 * GRIT_TRACE_CACHE_BYTES environment variable via the experiment
 * engine) evicts the least recently used chunks once resident bytes
 * exceed it. Eviction only drops the cache's reference — outstanding
 * ChunkHandles stay valid — and an evicted chunk that is needed again
 * regenerates deterministically (replay-from-boundary), so eviction
 * costs time, never results.
 */

#ifndef GRIT_WORKLOAD_TRACE_CACHE_H_
#define GRIT_WORKLOAD_TRACE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "workload/apps.h"
#include "workload/trace.h"
#include "workload/trace_stream.h"

namespace grit::workload {

/**
 * Thread-safe, byte-budgeted LRU cache of generated TraceChunks keyed
 * by (AppId, params, gpu, chunk size, chunk index).
 */
class TraceCache
{
  public:
    TraceCache() = default;
    TraceCache(const TraceCache &) = delete;
    TraceCache &operator=(const TraceCache &) = delete;

    /**
     * Open a chunk-cached stream of @p gpu's trace for (app, params).
     * Each chunk is looked up in the shared LRU first; a miss is
     * produced by the stream's private GeneratedTraceStream and
     * published for other consumers. Safe to consume from any thread,
     * but one stream object belongs to one consumer.
     */
    std::unique_ptr<TraceStream> openStream(AppId app,
                                            const WorkloadParams &params,
                                            unsigned gpu,
                                            std::uint64_t chunk_accesses);

    /**
     * The whole workload as the simulator replays it: the metadata
     * shell, one chunk-cached stream per GPU, and the exact per-GPU
     * access counts (from a memoized counting pass).
     */
    StreamedWorkload openWorkload(AppId app, const WorkloadParams &params,
                                  std::uint64_t chunk_accesses);

    /**
     * Cap resident chunk bytes; the least recently used chunks are
     * evicted beyond it. 0 (the default) disables the cap. The chunk
     * being inserted is never evicted by its own insertion, so a
     * single oversized chunk still caches (and is reclaimed by the
     * next insertion).
     */
    void setByteBudget(std::uint64_t bytes);

    /** Current byte budget (0 = unbounded). */
    std::uint64_t byteBudget() const;

    /** Resident bytes of generated cached chunks. */
    std::uint64_t bytes() const;

    /** Chunks dropped by the byte budget. */
    std::uint64_t evictions() const { return evictions_.load(); }

    /** Chunk requests served from a generated (or in-flight) entry. */
    std::uint64_t hits() const { return hits_.load(); }

    /** Chunk requests that triggered a (re)generation. */
    std::uint64_t misses() const { return misses_.load(); }

    /** Entries currently cached (chunks and end-of-stream markers). */
    std::size_t size() const;

    /**
     * Drop every cached chunk and counting pass. Outstanding handles
     * stay valid; a chunk still being generated is cached when its
     * generation finishes.
     */
    void clear();

  private:
    struct Key
    {
        AppId app;
        WorkloadParams params;
        bool operator==(const Key &) const = default;
    };

    struct KeyHash
    {
        std::size_t operator()(const Key &key) const;
    };

    struct ChunkKey
    {
        Key workload;
        unsigned gpu = 0;
        std::uint64_t chunkAccesses = 0;
        std::uint64_t chunk = 0;
        bool operator==(const ChunkKey &) const = default;
    };

    struct ChunkKeyHash
    {
        std::size_t operator()(const ChunkKey &key) const;
    };

    /** Ready entries, least recently used first (keys live in chunks_). */
    using Recency = std::list<const ChunkKey *>;

    struct ChunkEntry
    {
        /** Resolves once the claiming consumer's generation finishes. */
        std::shared_future<ChunkHandle> slot;
        std::uint64_t bytes = 0;  //!< known once ready
        bool ready = false;       //!< generated, counted in recency_
        Recency::iterator recency;
    };

    class CachedStream;

    /**
     * Chunk @p key, from the cache or — on a miss — from @p generate,
     * which runs outside the lock and must not consult this cache:
     * the claimer of a slot never waits on another slot, so waiting
     * cannot deadlock. A nullptr from @p generate (past the stream's
     * end) is cached like a chunk of no bytes.
     */
    ChunkHandle fetch(const ChunkKey &key,
                      const std::function<ChunkHandle()> &generate);

    /**
     * Evict least recently used chunks until the budget holds; @p keep
     * (may be null) survives.
     */
    void evictLocked(const ChunkKey *keep);

    /** Memoized counting pass for (app, params). */
    std::vector<std::uint64_t> accessCounts(const Key &key);

    mutable std::mutex mu_;
    std::unordered_map<ChunkKey, ChunkEntry, ChunkKeyHash> chunks_;
    Recency recency_;
    std::unordered_map<Key, std::vector<std::uint64_t>, KeyHash> counts_;
    std::uint64_t byteBudget_ = 0;
    std::uint64_t totalBytes_ = 0;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace grit::workload

#endif  // GRIT_WORKLOAD_TRACE_CACHE_H_
