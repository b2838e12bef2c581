/**
 * @file
 * Page-placement policy interface.
 *
 * The UVM driver owns the *mechanisms* (migrate, map-remote, duplicate,
 * collapse); a PlacementPolicy chooses among them per fault. A policy
 * is built on the driver whose mechanisms it steers. The uniform
 * schemes (Section II-B) are rows of data (policy/uniform.h); GRIT
 * (Section V) chooses per page from PTE scheme bits; baselines
 * (Griffin, GPS) add their own bookkeeping.
 */

#ifndef GRIT_POLICY_POLICY_H_
#define GRIT_POLICY_POLICY_H_

#include <cstdint>

#include "mem/pte.h"
#include "simcore/types.h"

namespace grit::uvm {
class UvmDriver;
}  // namespace grit::uvm

namespace grit::policy {

/** What the driver should do to resolve a fault. */
enum class FaultAction : std::uint8_t {
    /** Migrate the page into the requester's memory (on-touch). */
    kMigrate,
    /** Establish a remote translation; data stays put (access counter). */
    kMapRemote,
    /** Replicate for reads; writes collapse (page duplication). */
    kDuplicate,
    /** Oracle: make it local at zero cost (Ideal upper bound). */
    kIdealLocal,
    /**
     * GPS-style subscription: replicate locally with a *writable*
     * mapping; writes broadcast to subscribers instead of collapsing.
     */
    kSubscribe,
};

/** Context describing a fault presented to the policy. */
struct FaultInfo
{
    sim::GpuId gpu = sim::kNoGpu;  //!< faulting GPU
    sim::PageId page = 0;
    bool write = false;
    /** Write hit a read-only duplication replica. */
    bool protectionFault = false;
    /** Page has never been touched by any GPU (first cold fault). */
    bool coldTouch = false;
    /** Current owner of the authoritative copy (kHostId if spilled). */
    sim::GpuId owner = sim::kHostId;
    /** Number of duplication replicas currently alive. */
    unsigned replicaCount = 0;
};

/** A policy's answer to one fault. */
struct FaultDecision
{
    FaultAction action = FaultAction::kMigrate;
    /**
     * Extra fault-handling latency added by policy machinery (GRIT's
     * PA-Table / PA-Cache lookups). Charged to the Host category.
     */
    sim::Cycle overhead = 0;
};

/** Strategy deciding page placement on every UVM fault. */
class PlacementPolicy
{
  public:
    /** @param driver the driver whose mechanisms this policy steers. */
    explicit PlacementPolicy(uvm::UvmDriver &driver) : driver_(driver) {}
    virtual ~PlacementPolicy() = default;

    /** Choose the action resolving @p info, with its overhead. */
    virtual FaultDecision onFault(const FaultInfo &info,
                                  sim::Cycle now) = 0;

    /**
     * Whether hardware remote-access counters should count accesses to
     * @p page and trigger threshold migrations for it.
     */
    virtual bool countsRemote(sim::PageId page) const
    {
        (void)page;
        return false;
    }

    /**
     * Observation hook invoked for every data access after translation
     * (Griffin's interval classification and GPS's store broadcasts
     * hang off this).
     * @param remote the access targeted another GPU's memory.
     * @return extra cycles the access must absorb (e.g. GPS broadcast).
     */
    virtual sim::Cycle
    onAccess(sim::GpuId gpu, sim::PageId page, bool write, bool remote,
             sim::Cycle now)
    {
        (void)gpu;
        (void)page;
        (void)write;
        (void)remote;
        (void)now;
        return 0;
    }

    /**
     * Scheme governing @p page right now, for the Figure 19 breakdown.
     * Uniform policies return their own scheme; GRIT reads PTE bits.
     */
    virtual mem::Scheme schemeOf(sim::PageId page) const = 0;

  protected:
    uvm::UvmDriver &driver_;
};

}  // namespace grit::policy

#endif  // GRIT_POLICY_POLICY_H_
