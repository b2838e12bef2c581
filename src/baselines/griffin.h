/**
 * @file
 * Griffin baseline (Baruah et al., HPCA 2020; paper Section VI-C1).
 *
 * Griffin-DPC (Dynamic Page Classification) tracks per-page, per-GPU
 * access counts on each GPU and, at a fixed time interval, migrates
 * pages whose dominant accessor differs from their owner. Between
 * interval boundaries faults resolve to remote mappings. Shipping the
 * per-GPU access profiles to the host each interval costs PCIe
 * bandwidth — the communication overhead GRIT's PA-side tracking
 * avoids. Griffin's second component, ACUD (asynchronous compute-unit
 * draining), is a UvmConfig flag (`acud`) that shrinks the pipeline
 * drain cost of every invalidation and composes with any policy
 * (including GRIT, for the paper's GRIT+ACUD configuration).
 */

#ifndef GRIT_BASELINES_GRIFFIN_H_
#define GRIT_BASELINES_GRIFFIN_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "policy/policy.h"
#include "simcore/types.h"

namespace grit::baselines {

/** Griffin-DPC configuration. */
struct GriffinConfig
{
    /** Classification interval (cycles). */
    sim::Cycle intervalCycles = 100000;
    /** Minimum interval accesses by the dominant GPU to migrate. */
    std::uint32_t minAccesses = 16;
    /** Dominance ratio over the current owner's accesses. */
    double dominanceRatio = 2.0;
    /** Bytes of access-profile metadata shipped per tracked page. */
    std::uint64_t profileBytesPerPage = 8;
};

/** Griffin's Dynamic Page Classification policy. */
class GriffinDpcPolicy : public policy::PlacementPolicy
{
  public:
    explicit GriffinDpcPolicy(uvm::UvmDriver &driver,
                              const GriffinConfig &config = {});

    policy::FaultDecision onFault(const policy::FaultInfo &info,
                                  sim::Cycle now) override;

    sim::Cycle onAccess(sim::GpuId gpu, sim::PageId page, bool write,
                        bool remote, sim::Cycle now) override;

    mem::Scheme
    schemeOf(sim::PageId page) const override
    {
        (void)page;
        // DPC behaves as remote-access-then-migrate, closest to the
        // access-counter scheme in Table IV terms.
        return mem::Scheme::kAccessCounter;
    }

    std::uint64_t intervalsProcessed() const { return intervals_; }
    std::uint64_t migrationsIssued() const { return migrations_; }

  private:
    /** Run the boundary classification at @p now. */
    void processInterval(sim::Cycle now);

    GriffinConfig config_;
    /** page -> per-GPU access counts in the current interval. */
    std::unordered_map<sim::PageId, std::vector<std::uint32_t>> counts_;
    sim::Cycle nextBoundary_ = 0;
    std::uint64_t intervals_ = 0;
    std::uint64_t migrations_ = 0;
};

}  // namespace grit::baselines

#endif  // GRIT_BASELINES_GRIFFIN_H_
