#include "workload/trace_cache.h"

#include <bit>

namespace grit::workload {

namespace {

/** splitmix64-style avalanche, for combining key fields. */
std::uint64_t
mix(std::uint64_t h, std::uint64_t v)
{
    h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    h *= 0xBF58476D1CE4E5B9ULL;
    return h ^ (h >> 31);
}

}  // namespace

std::size_t
TraceCache::KeyHash::operator()(const Key &key) const
{
    std::uint64_t h = static_cast<std::uint64_t>(key.app);
    h = mix(h, key.params.numGpus);
    h = mix(h, key.params.footprintDivisor);
    h = mix(h, key.params.seed);
    h = mix(h, std::bit_cast<std::uint64_t>(key.params.intensity));
    return static_cast<std::size_t>(h);
}

std::size_t
TraceCache::ChunkKeyHash::operator()(const ChunkKey &key) const
{
    std::uint64_t h = KeyHash{}(key.workload);
    h = mix(h, key.gpu);
    h = mix(h, key.chunkAccesses);
    h = mix(h, key.chunk);
    return static_cast<std::size_t>(h);
}

ChunkHandle
TraceCache::fetch(const ChunkKey &key,
                  const std::function<ChunkHandle()> &generate)
{
    std::promise<ChunkHandle> promise;
    std::shared_future<ChunkHandle> slot;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto [it, claimed] = chunks_.try_emplace(key);
        ChunkEntry &entry = it->second;
        if (claimed) {
            entry.slot = promise.get_future().share();
            misses_.fetch_add(1);
        } else {
            if (entry.ready)
                recency_.splice(recency_.end(), recency_, entry.recency);
            slot = entry.slot;
            hits_.fetch_add(1);
        }
    }
    if (slot.valid())
        return slot.get();  // waits out an in-flight generation

    // This consumer holds the slot. Only the claimer removes or fills
    // an in-flight entry (eviction and clear() skip it), so the entry
    // is still here when generation ends.
    ChunkHandle chunk;
    try {
        chunk = generate();
    } catch (...) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            chunks_.erase(key);  // don't cache the failure: retry later
        }
        promise.set_exception(std::current_exception());
        throw;
    }
    promise.set_value(chunk);

    std::lock_guard<std::mutex> lock(mu_);
    auto it = chunks_.find(key);
    ChunkEntry &entry = it->second;
    entry.bytes = chunk != nullptr ? chunkBytes(*chunk) : 0;
    entry.ready = true;
    entry.recency = recency_.insert(recency_.end(), &it->first);
    totalBytes_ += entry.bytes;
    evictLocked(&it->first);
    return chunk;
}

void
TraceCache::evictLocked(const ChunkKey *keep)
{
    while (byteBudget_ != 0 && totalBytes_ > byteBudget_ &&
           !recency_.empty() && recency_.front() != keep) {
        const auto victim = chunks_.find(*recency_.front());
        totalBytes_ -= victim->second.bytes;
        evictions_.fetch_add(1);
        recency_.pop_front();
        chunks_.erase(victim);
    }
}

std::vector<std::uint64_t>
TraceCache::accessCounts(const Key &key)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = counts_.find(key);
        if (it != counts_.end())
            return it->second;
    }
    // Counting pass outside the lock: cheap (RNG + arithmetic, no
    // storage) and deterministic, so a racing duplicate is harmless.
    CountingSink sink(key.params.numGpus);
    generateTrace(key.app, key.params, sink);
    std::lock_guard<std::mutex> lock(mu_);
    return counts_.try_emplace(key, sink.counts()).first->second;
}

/**
 * The consumer-side stream handed out by openStream(): fetch each
 * chunk through the shared cache; on a miss, align a private generator
 * stream to the requested boundary and pull the chunk from it.
 */
class TraceCache::CachedStream : public TraceStream
{
  public:
    CachedStream(TraceCache &cache, const ChunkKey &first)
        : cache_(cache), key_(first)
    {
    }

    ChunkHandle
    next() override
    {
        ChunkHandle chunk =
            cache_.fetch(key_, [this] { return pullFromSource(); });
        if (chunk != nullptr)
            ++key_.chunk;
        return chunk;
    }

    void seek(std::uint64_t chunk) override { key_.chunk = chunk; }

    std::uint64_t chunkAccesses() const override
    {
        return key_.chunkAccesses;
    }

  private:
    /** Generate chunk key_.chunk from the private source. */
    ChunkHandle
    pullFromSource()
    {
        const std::uint64_t chunk = key_.chunk;
        if (source_ == nullptr || sourcePos_ > chunk) {
            const Key workload = key_.workload;
            source_ = std::make_unique<GeneratedTraceStream>(
                [workload](TraceSink &sink) {
                    generateTrace(workload.app, workload.params, sink);
                },
                key_.gpu, key_.chunkAccesses, /*max_buffered=*/4,
                /*first_chunk=*/chunk);
            sourcePos_ = chunk;
        } else if (sourcePos_ < chunk) {
            // The gap was served from the cache; fast-forward the
            // generator (forward seek discards, never regenerates).
            source_->seek(chunk);
            sourcePos_ = chunk;
        }
        ChunkHandle c = source_->next();
        if (c != nullptr)
            ++sourcePos_;
        return c;
    }

    TraceCache &cache_;
    ChunkKey key_;  //!< key of the next chunk to yield
    std::unique_ptr<GeneratedTraceStream> source_;
    std::uint64_t sourcePos_ = 0;  //!< source's next chunk
};

std::unique_ptr<TraceStream>
TraceCache::openStream(AppId app, const WorkloadParams &params,
                       unsigned gpu, std::uint64_t chunk_accesses)
{
    return std::make_unique<CachedStream>(
        *this, ChunkKey{Key{app, params}, gpu, chunk_accesses, 0});
}

StreamedWorkload
TraceCache::openWorkload(AppId app, const WorkloadParams &params,
                         std::uint64_t chunk_accesses)
{
    StreamedWorkload sw;
    sw.meta = workloadShell(app, params);
    sw.accesses = accessCounts(Key{app, params});
    sw.streams.reserve(params.numGpus);
    for (unsigned g = 0; g < params.numGpus; ++g)
        sw.streams.push_back(openStream(app, params, g, chunk_accesses));
    return sw;
}

void
TraceCache::setByteBudget(std::uint64_t bytes)
{
    std::lock_guard<std::mutex> lock(mu_);
    byteBudget_ = bytes;
    evictLocked(nullptr);  // shrink immediately, keep nothing
}

std::uint64_t
TraceCache::byteBudget() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return byteBudget_;
}

std::uint64_t
TraceCache::bytes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return totalBytes_;
}

std::size_t
TraceCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return recency_.size();
}

void
TraceCache::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    std::erase_if(chunks_, [](const auto &kv) { return kv.second.ready; });
    recency_.clear();
    counts_.clear();
    totalBytes_ = 0;
}

}  // namespace grit::workload
