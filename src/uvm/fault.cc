#include "uvm/fault.h"

namespace grit::uvm {

sim::Cycle
FaultCoalescer::inflight(sim::GpuId gpu, sim::PageId page, sim::Cycle now)
{
    const std::uint64_t k = key(gpu, page);
    const sim::Cycle *completion = inflight_.find(k);
    if (completion == nullptr)
        return sim::kCycleMax;
    if (*completion <= now) {
        inflight_.erase(k);  // episode finished; next fault is fresh
        return sim::kCycleMax;
    }
    ++coalesced_;
    return *completion;
}

void
FaultCoalescer::record(sim::GpuId gpu, sim::PageId page,
                       sim::Cycle completion)
{
    inflight_[key(gpu, page)] = completion;
}

}  // namespace grit::uvm
