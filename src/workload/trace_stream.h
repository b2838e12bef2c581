/**
 * @file
 * Streaming trace production: bounded-memory chunk iteration over the
 * deterministic generators.
 *
 * The generators in generators.cc/apps.cc/dnn.cc are push-style: they
 * interleave every GPU's accesses through one shared RNG, which is what
 * makes traces deterministic and cross-GPU-correlated. Rather than
 * rewrite them as resumable coroutines (and risk perturbing the RNG
 * call order that the committed goldens pin), streaming keeps the
 * generators untouched and changes only where their output lands:
 *
 *  - TraceSink is the push target. VectorSink materializes (the classic
 *    `std::vector` path, byte-for-byte identical to the historical
 *    traces); CountingSink sizes a trace without storing it.
 *  - TraceStream is the pull side: a sequence of fixed-size TraceChunks
 *    for one GPU. GeneratedTraceStream re-runs the whole generator on a
 *    producer thread, keeps only the requested GPU's accesses, and
 *    parks them in a small bounded buffer — memory stays O(chunk),
 *    never O(trace).
 *
 * Determinism contract (docs/PERFORMANCE.md "Scaling footprints"):
 * chunking is pure framing. For a fixed (generator, gpu), the
 * concatenation of chunks is byte-identical to the materialized trace
 * at any chunk size, and seek(k) replays from any chunk boundary by
 * re-deriving the prefix from the generator — chunks need never be
 * retained to be revisited.
 */

#ifndef GRIT_WORKLOAD_TRACE_STREAM_H_
#define GRIT_WORKLOAD_TRACE_STREAM_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "workload/trace.h"

namespace grit::workload {

/**
 * Receives the accesses a generator emits, in generation order.
 * Implementations may throw StopGeneration to abandon a run early
 * (e.g. a cancelled producer thread); generators let it propagate.
 */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** One access by @p gpu, in global generation order. */
    virtual void emit(unsigned gpu, const Access &access) = 0;
};

/** Thrown by a TraceSink to abort the generator mid-run. */
struct StopGeneration
{
};

/** Materializes the classic per-GPU `std::vector` traces. */
class VectorSink : public TraceSink
{
  public:
    explicit VectorSink(unsigned num_gpus) : traces_(num_gpus) {}

    void
    emit(unsigned gpu, const Access &access) override
    {
        traces_[gpu].push_back(access);
    }

    /** Move the accumulated streams out. */
    std::vector<GpuTrace> take() { return std::move(traces_); }

  private:
    std::vector<GpuTrace> traces_;
};

/** Counts per-GPU accesses without storing them (stream sizing pass). */
class CountingSink : public TraceSink
{
  public:
    explicit CountingSink(unsigned num_gpus) : counts_(num_gpus, 0) {}

    void
    emit(unsigned gpu, const Access &) override
    {
        counts_[gpu] += 1;
    }

    const std::vector<std::uint64_t> &counts() const { return counts_; }

  private:
    std::vector<std::uint64_t> counts_;
};

/** A run that emits one workload's full multi-GPU trace into a sink. */
using TraceGenerator = std::function<void(TraceSink &)>;

/** One GPU's accesses [firstAccess, firstAccess + accesses.size()). */
struct TraceChunk
{
    std::uint64_t index = 0;        //!< chunk ordinal within the stream
    std::uint64_t firstAccess = 0;  //!< global index of accesses[0]
    std::vector<Access> accesses;
};

/** Shared, immutable chunk (cacheable across consumers). */
using ChunkHandle = std::shared_ptr<const TraceChunk>;

/** Resident bytes of one chunk (cache accounting). */
std::uint64_t chunkBytes(const TraceChunk &chunk);

/**
 * Pull iterator over one GPU's access stream in fixed-size chunks.
 *
 * next() yields chunks in order and nullptr once the stream is
 * exhausted; every chunk except possibly the final one holds exactly
 * chunkAccesses() accesses. seek(k) repositions so the following
 * next() yields chunk k — forward or backward, deterministically.
 */
class TraceStream
{
  public:
    virtual ~TraceStream() = default;
    TraceStream() = default;
    TraceStream(const TraceStream &) = delete;
    TraceStream &operator=(const TraceStream &) = delete;

    /** The next chunk, or nullptr once exhausted. */
    virtual ChunkHandle next() = 0;

    /** Reposition so the following next() yields chunk @p chunk. */
    virtual void seek(std::uint64_t chunk) = 0;

    /** Accesses per full chunk. */
    virtual std::uint64_t chunkAccesses() const = 0;
};

/** Shared, immutable prebuilt workload (DNN models, custom traces). */
using WorkloadHandle = std::shared_ptr<const Workload>;

/** Accesses per chunk when neither caller nor GRIT_TRACE_CHUNK says. */
inline constexpr std::uint64_t kDefaultChunkAccesses = 65536;

/**
 * Chunked view over one GPU's trace of an already-materialized
 * workload. Shares ownership of the workload, so the trace lives as
 * long as the stream does.
 */
class MaterializedTraceStream : public TraceStream
{
  public:
    MaterializedTraceStream(WorkloadHandle workload, unsigned gpu,
                            std::uint64_t chunk_accesses);

    ChunkHandle next() override;
    void seek(std::uint64_t chunk) override { nextChunk_ = chunk; }
    std::uint64_t chunkAccesses() const override { return chunkAccesses_; }

  private:
    WorkloadHandle workload_;
    const GpuTrace *trace_;
    std::uint64_t chunkAccesses_;
    std::uint64_t nextChunk_ = 0;
};

/**
 * Streams one GPU's trace by running the full generator on a producer
 * thread and discarding the other GPUs' accesses (their RNG draws
 * still happen, so the kept accesses are bit-identical to the
 * materialized trace). A bounded buffer of pending chunks throttles
 * the producer, so resident memory is O(chunk), independent of trace
 * length. Replay-from-boundary: a backward seek restarts the
 * generator and skip-counts to the requested chunk.
 */
class GeneratedTraceStream : public TraceStream
{
  public:
    /**
     * @param generator     full multi-GPU generation run (re-runnable).
     * @param gpu           the GPU whose accesses this stream yields.
     * @param chunk_accesses accesses per chunk (>= 1).
     * @param max_buffered  producer lead, in chunks (>= 1).
     * @param first_chunk   start position (skip-counts the prefix).
     */
    GeneratedTraceStream(TraceGenerator generator, unsigned gpu,
                         std::uint64_t chunk_accesses,
                         std::size_t max_buffered = 4,
                         std::uint64_t first_chunk = 0);
    ~GeneratedTraceStream() override;

    ChunkHandle next() override;
    void seek(std::uint64_t chunk) override;
    std::uint64_t chunkAccesses() const override { return chunkAccesses_; }

  private:
    /** Launch the producer so its first yielded chunk is @p first. */
    void start(std::uint64_t first);
    /** Stop and join the producer, dropping buffered chunks. */
    void stop();
    void produce(std::stop_token st, std::uint64_t first);

    TraceGenerator generator_;
    unsigned gpu_;
    std::uint64_t chunkAccesses_;
    std::size_t maxBuffered_;
    std::uint64_t nextChunk_ = 0;  //!< consumer position

    std::mutex mu_;
    std::condition_variable_any cv_;
    std::deque<ChunkHandle> buffered_;
    bool done_ = false;
    std::exception_ptr error_;
    std::jthread producer_;
};

/**
 * A workload as the simulator replays it: the metadata shell (traces
 * empty), one TraceStream per GPU, and the exact per-GPU access counts
 * the simulator needs up front to seed lanes and derive event limits.
 */
struct StreamedWorkload
{
    Workload meta;
    std::vector<std::unique_ptr<TraceStream>> streams;
    std::vector<std::uint64_t> accesses;

    std::uint64_t
    totalAccesses() const
    {
        std::uint64_t n = 0;
        for (std::uint64_t a : accesses)
            n += a;
        return n;
    }
};

/**
 * The way a prebuilt workload reaches the simulator: each GPU's trace
 * behind a MaterializedTraceStream sharing @p workload, with the
 * access counts read off the traces. Replays the exact access sequence
 * a generated stream of the same workload yields.
 */
StreamedWorkload
streamWorkload(WorkloadHandle workload,
               std::uint64_t chunk_accesses = kDefaultChunkAccesses);

}  // namespace grit::workload

#endif  // GRIT_WORKLOAD_TRACE_STREAM_H_
