/**
 * @file
 * Building blocks for synthetic trace generation.
 *
 * A TraceBuilder accumulates per-GPU streams; Region describes a
 * contiguous range of logical 4 KB pages (the data structures the
 * paper's Section IV-C ties attribute clustering to). Pattern helpers
 * emit the paper's three access archetypes: sequential sweeps
 * (adjacent), uniform random, and strided scatter-gather.
 */

#ifndef GRIT_WORKLOAD_GENERATORS_H_
#define GRIT_WORKLOAD_GENERATORS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "simcore/rng.h"
#include "simcore/types.h"
#include "workload/trace.h"
#include "workload/trace_stream.h"

namespace grit::workload {

/** A contiguous span of logical 4 KB pages. */
struct Region
{
    sim::PageId firstPage = 0;
    std::uint64_t pages = 0;

    sim::PageId endPage() const { return firstPage + pages; }

    /** Contiguous sub-slice [i/n, (i+1)/n) of the region. */
    Region slice(unsigned i, unsigned n) const;

    bool
    contains(sim::PageId page) const
    {
        return page >= firstPage && page < endPage();
    }
};

/** Allocates regions sequentially, mimicking consecutive mallocs. */
class RegionAllocator
{
  public:
    /** Reserve @p pages contiguous logical pages. */
    Region alloc(std::uint64_t pages);

    /** Total pages allocated so far (the workload footprint). */
    std::uint64_t allocated() const { return next_; }

  private:
    sim::PageId next_ = 0;
};

/**
 * Emits the per-GPU access streams of one workload.
 *
 * The pattern helpers draw from one shared RNG in global generation
 * order, so the emitted interleaving is deterministic regardless of
 * where the accesses land: into owned per-GPU vectors (the default,
 * collected with take()) or into an external TraceSink (the streaming
 * path — see workload/trace_stream.h). Both modes perform identical
 * RNG draws, so they produce bit-identical traces.
 */
class TraceBuilder
{
  public:
    /**
     * Materializing mode: accumulate into owned vectors.
     * @param num_gpus GPUs in the system.
     * @param seed     deterministic RNG seed.
     */
    TraceBuilder(unsigned num_gpus, std::uint64_t seed);

    /** Streaming mode: forward every access to @p sink. */
    TraceBuilder(unsigned num_gpus, std::uint64_t seed, TraceSink &sink);

    unsigned numGpus() const { return static_cast<unsigned>(gpus_); }

    /** Append one access by @p gpu to @p page at a random line. */
    void touch(unsigned gpu, sim::PageId page, bool write);

    /** Append @p count accesses by @p gpu across @p page's lines. */
    void touchLines(unsigned gpu, sim::PageId page, unsigned count,
                    bool write);

    /**
     * Sequential sweep: @p gpu touches every page of @p region in
     * order, @p per_page accesses each, with write probability
     * @p write_prob per access.
     */
    void sweep(unsigned gpu, const Region &region, unsigned per_page,
               double write_prob);

    /**
     * Uniform random accesses by @p gpu within @p region.
     * @param count      number of accesses.
     * @param write_prob write probability per access.
     */
    void randomAccesses(unsigned gpu, const Region &region,
                        std::uint64_t count, double write_prob);

    /**
     * Strided pass: @p gpu touches pages first, first+stride, ... within
     * @p region (scatter-gather archetype).
     */
    void stridedPass(unsigned gpu, const Region &region,
                     std::uint64_t start_offset, std::uint64_t stride,
                     unsigned per_page, double write_prob);

    sim::Rng &rng() { return rng_; }

    /** Move the accumulated streams out (materializing mode only). */
    std::vector<GpuTrace> take();

  private:
    std::size_t gpus_;
    sim::Rng rng_;
    std::unique_ptr<VectorSink> owned_;  //!< materializing mode only
    TraceSink *sink_;                    //!< never null
};

/**
 * Production-scale synthetic workload for perfbench's million-page
 * `scale_1m` workload (docs/WORKLOADS.md): per-GPU private slices are
 * swept sequentially (every page becomes resident, stressing the
 * flat_map page tables at full footprint) and re-touched uniformly at
 * random (calendar-queue churn), while a small shared region adds
 * cross-GPU read traffic through the replica directory.
 */
struct ScaleParams
{
    /** Total resident footprint in 4 KB pages. */
    std::uint64_t pages = 1u << 20;
    unsigned numGpus = 4;
    std::uint64_t seed = 1;
    /** Sequential touches per page during the residency sweep. */
    unsigned sweepPerPage = 2;
    /** Uniform random re-touches per GPU within its own slice. */
    std::uint64_t randomPerGpu = 1u << 19;
    /** Random reads per GPU of the shared region (1/64 of pages). */
    std::uint64_t sharedPerGpu = 1u << 15;

    bool operator==(const ScaleParams &) const = default;
};

/** Metadata shell of the scale workload (traces empty). */
Workload scaleWorkloadShell(const ScaleParams &params);

/** Emit the scale workload's trace into @p sink. */
void generateScaleTrace(const ScaleParams &params, TraceSink &sink);

/** Materialized scale workload (tests; prefer streaming at size). */
Workload makeScaleWorkload(const ScaleParams &params);

}  // namespace grit::workload

#endif  // GRIT_WORKLOAD_GENERATORS_H_
