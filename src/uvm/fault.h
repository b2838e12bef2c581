/**
 * @file
 * Fault taxonomy and in-flight fault coalescing.
 *
 * A GPU raises a *local page fault* when a translation is invalid in its
 * local page table, and a *page-protection fault* when a write hits a
 * read-only duplication replica (paper Section II). While the UVM
 * driver services a fault, further faults from the same GPU for the
 * same page coalesce onto the in-flight record, as the GMMU's fault
 * queues do in hardware.
 */

#ifndef GRIT_UVM_FAULT_H_
#define GRIT_UVM_FAULT_H_

#include <cassert>
#include <cstdint>

#include "simcore/page_map.h"
#include "simcore/types.h"

namespace grit::uvm {

/** Kinds of UVM-visible faults. */
enum class FaultKind : std::uint8_t {
    kLocalPageFault,       //!< invalid local translation
    kPageProtectionFault,  //!< write to a read-only replica
};

/** Tracks in-flight (gpu, page) fault episodes for coalescing. */
class FaultCoalescer
{
  public:
    /**
     * If a fault for (@p gpu, @p page) is already being serviced at
     * @p now, return its completion time; otherwise return kCycleMax.
     */
    sim::Cycle inflight(sim::GpuId gpu, sim::PageId page, sim::Cycle now);

    /** Register a fault episode completing at @p completion. */
    void record(sim::GpuId gpu, sim::PageId page, sim::Cycle completion);

    /** Episodes absorbed by coalescing so far. */
    std::uint64_t coalesced() const { return coalesced_; }

  private:
    static constexpr unsigned kGpuShift = 52;

    /**
     * GPU-major key, so each GPU's faulting pages stay as dense in the
     * page map as the pages themselves.
     */
    static std::uint64_t
    key(sim::GpuId gpu, sim::PageId page)
    {
        assert(gpu >= 0 && page >> kGpuShift == 0);
        return (static_cast<std::uint64_t>(gpu) << kGpuShift) | page;
    }

    /** Completion time of each (gpu, page) episode seen last. */
    sim::PageMap<sim::Cycle> inflight_;
    std::uint64_t coalesced_ = 0;
};

}  // namespace grit::uvm

#endif  // GRIT_UVM_FAULT_H_
