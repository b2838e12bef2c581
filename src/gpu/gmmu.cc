#include "gpu/gmmu.h"

#include "simcore/trace_recorder.h"

namespace grit::gpu {

Gmmu::Gmmu() : walkers_("gmmu.walkers", kWalkers), pwc_(kWalkCacheEntries)
{
}

WalkResult
Gmmu::walk(sim::PageId page, sim::Cycle now)
{
    const unsigned accesses = pwc_.walkAccesses(page);
    const sim::Cycle service =
        static_cast<sim::Cycle>(accesses) * kWalkLevelLatency;
    const sim::Cycle completion = walkers_.acquire(now, service);
    pwc_.recordWalk(accesses);
    pwc_.fill(page);
    if (trace_)
        trace_->record("walk", "gmmu", now, completion - now, gpuId_,
                       page);
    return WalkResult{completion, accesses};
}

}  // namespace grit::gpu
