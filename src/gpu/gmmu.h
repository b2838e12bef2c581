/**
 * @file
 * GPU memory-management unit: shared page-table walkers plus the
 * page-walk cache (Table I: 8 walkers shared per GPU, 100-cycle latency
 * per level, 128-entry walk cache). Table I's 64-entry walk queue is
 * not modelled: a walk waits for a free walker, never for a queue slot.
 */

#ifndef GRIT_GPU_GMMU_H_
#define GRIT_GPU_GMMU_H_

#include <cstdint>

#include "mem/page_walk_cache.h"
#include "simcore/resource.h"
#include "simcore/types.h"

namespace grit::sim {
class TraceRecorder;
}  // namespace grit::sim

namespace grit::gpu {

/** Page-table walkers shared by the GPU's lanes (Table I). */
inline constexpr unsigned kWalkers = 8;
/** Memory access per page-table level a walk reads (Table I). */
inline constexpr sim::Cycle kWalkLevelLatency = 100;
/** Page-walk cache entries (Table I). */
inline constexpr unsigned kWalkCacheEntries = 128;

static_assert(kWalkers > 0, "the GMMU needs a page-table walker");
static_assert(kWalkCacheEntries > 0, "the walk cache needs an entry");

/** Result of a local page-table walk. */
struct WalkResult
{
    sim::Cycle completion;  //!< time the walk finishes
    unsigned accesses;      //!< memory accesses performed (1..4)
};

/** The per-GPU GMMU: walker pool + page-walk cache. */
class Gmmu
{
  public:
    Gmmu();

    /**
     * Perform a page-table walk for @p page starting no earlier than
     * @p now. Queuing on the walker pool is reflected in the completion
     * time.
     */
    WalkResult walk(sim::PageId page, sim::Cycle now);

    /** Invalidate cached upper-level entries (shootdowns). */
    void flushWalkCache() { pwc_.flushAll(); }

    const mem::PageWalkCache &walkCache() const { return pwc_; }
    std::uint64_t walks() const { return walkers_.requests(); }
    sim::Cycle walkQueueDelay() const { return walkers_.queueDelay(); }

    /** Record walks as @p gpu-track trace events; nullptr disables. */
    void setTrace(sim::TraceRecorder *trace, sim::GpuId gpu)
    {
        trace_ = trace;
        gpuId_ = gpu;
    }

  private:
    sim::ServerPool walkers_;
    mem::PageWalkCache pwc_;
    sim::TraceRecorder *trace_ = nullptr;
    sim::GpuId gpuId_ = sim::kHostId;
};

}  // namespace grit::gpu

#endif  // GRIT_GPU_GMMU_H_
