/**
 * @file
 * GPS baseline (Muthukrishnan et al., MICRO 2021; paper Section VI-C2).
 *
 * GPS is a global publish-subscribe model: whenever a GPU accesses a
 * page it subscribes, receiving a local *writable* replica; stores to
 * subscribed pages are proactively broadcast at fine (cache-line)
 * granularity to every subscriber over NVLink, so reads are always
 * local and no write collapse ever occurs. The cost is replica
 * footprint: with mostly-shared workloads nearly every page replicates
 * on every GPU, inflating memory oversubscription (the paper measures
 * GPS at a 34 % higher oversubscription rate than GRIT).
 */

#ifndef GRIT_BASELINES_GPS_H_
#define GRIT_BASELINES_GPS_H_

#include <cstdint>

#include "policy/policy.h"
#include "simcore/types.h"
#include "stats/counters.h"

namespace grit::baselines {

/** GPS configuration. */
struct GpsConfig
{
    /** Payload of one broadcast store (cache line). */
    std::uint64_t storeBytes = sim::kLineSize;
};

/** The GPS publish-subscribe policy. */
class GpsPolicy : public policy::PlacementPolicy
{
  public:
    explicit GpsPolicy(uvm::UvmDriver &driver, const GpsConfig &config = {});

    policy::FaultDecision onFault(const policy::FaultInfo &info,
                                  sim::Cycle now) override;

    /** Writes to subscribed pages broadcast to every subscriber. */
    sim::Cycle onAccess(sim::GpuId gpu, sim::PageId page, bool write,
                        bool remote, sim::Cycle now) override;

    mem::Scheme
    schemeOf(sim::PageId page) const override
    {
        (void)page;
        return mem::Scheme::kDuplication;
    }

    /** Individual subscriber pushes (one broadcast store makes many). */
    std::uint64_t broadcasts() const { return broadcasts_; }

  private:
    GpsConfig config_;
    std::uint64_t broadcasts_ = 0;
    stats::CounterRef storeBroadcastsCtr_;
};

}  // namespace grit::baselines

#endif  // GRIT_BASELINES_GPS_H_
