#include "workload/trace_stream.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace grit::workload {

std::uint64_t
chunkBytes(const TraceChunk &chunk)
{
    return sizeof(TraceChunk) + chunk.accesses.capacity() * sizeof(Access);
}

MaterializedTraceStream::MaterializedTraceStream(
    WorkloadHandle workload, unsigned gpu, std::uint64_t chunk_accesses)
    : workload_(std::move(workload)),
      trace_(&workload_->traces[gpu]),
      chunkAccesses_(chunk_accesses)
{
    assert(chunk_accesses > 0);
    assert(gpu < workload_->numGpus());
}

ChunkHandle
MaterializedTraceStream::next()
{
    const std::uint64_t first = nextChunk_ * chunkAccesses_;
    if (first >= trace_->size())
        return nullptr;
    const std::uint64_t count =
        std::min<std::uint64_t>(chunkAccesses_, trace_->size() - first);
    auto chunk = std::make_shared<TraceChunk>();
    chunk->index = nextChunk_;
    chunk->firstAccess = first;
    chunk->accesses.assign(trace_->begin() + static_cast<std::ptrdiff_t>(first),
                           trace_->begin() +
                               static_cast<std::ptrdiff_t>(first + count));
    ++nextChunk_;
    return chunk;
}

StreamedWorkload
streamWorkload(WorkloadHandle workload)
{
    StreamedWorkload sw;
    sw.meta.name = workload->name;
    sw.meta.fullName = workload->fullName;
    sw.meta.suite = workload->suite;
    sw.meta.pattern = workload->pattern;
    sw.meta.paperFootprintMB = workload->paperFootprintMB;
    sw.meta.footprintGenPages = workload->footprintGenPages;
    for (unsigned g = 0; g < workload->numGpus(); ++g) {
        sw.accesses.push_back(workload->traces[g].size());
        sw.streams.push_back(std::make_unique<MaterializedTraceStream>(
            workload, g, kDefaultChunkAccesses));
    }
    return sw;
}

namespace {

/**
 * The producer-side sink: keeps one GPU's accesses, skip-counts the
 * prefix a seek requested, frames the rest into chunks, and parks them
 * in the stream's bounded buffer (blocking when the consumer lags;
 * aborting via StopGeneration when the stream shuts down, which it
 * checks at every chunk and, while it skip-counts, every
 * kStopPollAccesses skipped accesses).
 */
class ChunkingSink : public TraceSink
{
  public:
    ChunkingSink(unsigned gpu, std::uint64_t chunk_accesses,
                 std::uint64_t first_chunk,
                 const std::function<void(ChunkHandle)> &push,
                 const std::stop_token &st)
        : gpu_(gpu),
          chunkAccesses_(chunk_accesses),
          skip_(first_chunk * chunk_accesses),
          chunkIndex_(first_chunk),
          push_(push),
          st_(st)
    {
    }

    void
    emit(unsigned gpu, const Access &access) override
    {
        if (gpu != gpu_)
            return;
        if (skip_ > 0) {
            if ((--skip_ & (kStopPollAccesses - 1)) == 0 &&
                st_.stop_requested())
                throw StopGeneration{};
            ++position_;
            return;
        }
        if (buffer_.empty())
            buffer_.reserve(chunkAccesses_);
        buffer_.push_back(access);
        ++position_;
        if (buffer_.size() >= chunkAccesses_)
            flush();
    }

    /** Emit the trailing partial chunk, if any. */
    void
    finish()
    {
        if (!buffer_.empty())
            flush();
    }

  private:
    void
    flush()
    {
        if (st_.stop_requested())
            throw StopGeneration{};
        auto chunk = std::make_shared<TraceChunk>();
        chunk->index = chunkIndex_++;
        chunk->firstAccess = position_ - buffer_.size();
        chunk->accesses = std::move(buffer_);
        buffer_.clear();
        push_(std::move(chunk));
    }

    unsigned gpu_;
    std::uint64_t chunkAccesses_;
    std::uint64_t skip_;
    std::uint64_t position_ = 0;  //!< this-GPU accesses seen so far
    std::uint64_t chunkIndex_;
    std::vector<Access> buffer_;
    const std::function<void(ChunkHandle)> &push_;
    const std::stop_token &st_;
};

}  // namespace

GeneratedTraceStream::GeneratedTraceStream(TraceGenerator generator,
                                           unsigned gpu,
                                           std::uint64_t chunk_accesses,
                                           std::size_t max_buffered,
                                           std::uint64_t first_chunk)
    : generator_(std::move(generator)),
      gpu_(gpu),
      chunkAccesses_(chunk_accesses),
      maxBuffered_(std::max<std::size_t>(1, max_buffered)),
      nextChunk_(first_chunk)
{
    assert(chunk_accesses > 0);
    start(first_chunk);
}

GeneratedTraceStream::~GeneratedTraceStream() { stop(); }

void
GeneratedTraceStream::start(std::uint64_t first)
{
    done_ = false;
    error_ = nullptr;
    producer_ = std::jthread(
        [this, first](std::stop_token st) { produce(st, first); });
}

void
GeneratedTraceStream::stop()
{
    if (!producer_.joinable())
        return;
    producer_.request_stop();
    cv_.notify_all();
    producer_.join();
    buffered_.clear();
}

void
GeneratedTraceStream::produce(std::stop_token st, std::uint64_t first)
{
    const std::function<void(ChunkHandle)> push =
        [this, &st](ChunkHandle chunk) {
            std::unique_lock<std::mutex> lock(mu_);
            if (!cv_.wait(lock, st, [this] {
                    return buffered_.size() < maxBuffered_;
                }))
                throw StopGeneration{};
            buffered_.push_back(std::move(chunk));
            cv_.notify_all();
        };
    try {
        ChunkingSink sink(gpu_, chunkAccesses_, first, push, st);
        generator_(sink);
        sink.finish();
    } catch (const StopGeneration &) {
        return;  // shutdown or reseek; the consumer is not waiting
    } catch (...) {
        std::lock_guard<std::mutex> lock(mu_);
        error_ = std::current_exception();
        done_ = true;
        cv_.notify_all();
        return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    done_ = true;
    cv_.notify_all();
}

ChunkHandle
GeneratedTraceStream::next()
{
    ChunkHandle chunk;
    {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return !buffered_.empty() || done_; });
        if (error_)
            std::rethrow_exception(error_);
        if (buffered_.empty())
            return nullptr;  // done_ and drained: stream exhausted
        chunk = std::move(buffered_.front());
        buffered_.pop_front();
    }
    cv_.notify_all();
    ++nextChunk_;
    return chunk;
}

void
GeneratedTraceStream::seek(std::uint64_t chunk)
{
    if (chunk == nextChunk_)
        return;
    if (chunk > nextChunk_) {
        // Forward: drain and discard — the producer is already past or
        // heading toward the target.
        while (nextChunk_ < chunk && next() != nullptr) {
        }
        return;
    }
    // Backward: replay from the boundary by restarting the generator
    // with a skip count (generation is deterministic, so the replayed
    // prefix is bit-identical to the original pass).
    stop();
    nextChunk_ = chunk;
    start(chunk);
}

}  // namespace grit::workload
