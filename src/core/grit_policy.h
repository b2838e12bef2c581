/**
 * @file
 * The GRIT placement policy (paper Section V): Fault-Aware Initiator +
 * PA-Table / PA-Cache + scheme decision + Neighboring-Aware Prediction,
 * steering the UVM driver's mechanisms per page at runtime.
 */

#ifndef GRIT_CORE_GRIT_POLICY_H_
#define GRIT_CORE_GRIT_POLICY_H_

#include <cstdint>
#include <memory>

#include "core/neighbor_predictor.h"
#include "core/pa_cache.h"
#include "core/pa_table.h"
#include "policy/policy.h"
#include "simcore/types.h"
#include "stats/counters.h"

namespace grit::core {

/** GRIT configuration knobs (defaults match the paper). */
struct GritConfig
{
    /** Faults before a scheme change triggers (Section V-B; default 4). */
    std::uint32_t faultThreshold = 4;
    /** Enable the hardware PA-Cache (off = "PA-Table only" ablation). */
    bool paCacheEnabled = true;
    /** Enable Neighboring-Aware Prediction. */
    bool napEnabled = true;

    unsigned paCacheEntries = 64;
    unsigned paCacheWays = 4;

    /** PA-Cache hit latency. */
    sim::Cycle paCacheHitCycles = 4;
    /**
     * Fault-latency slack that hides PA accesses behind the centralized
     * page-table walk (Section V-C: the PA lookup usually finishes
     * before the walk does).
     */
    sim::Cycle paHiddenSlackCycles = 150;
    /** Host-memory accesses a PA-Table touch performs (read + update). */
    unsigned paTableAccessesOnMiss = 2;
    /** Bytes per PA-Table memory access (one 48-bit entry, padded). */
    std::uint64_t paEntryBytes = 8;
};

/** Fine-GRained dynamIc page placemenT. */
class GritPolicy : public policy::PlacementPolicy
{
  public:
    explicit GritPolicy(uvm::UvmDriver &driver,
                        const GritConfig &config = {});

    /** The scheme's action, plus the PA machinery latency it cost. */
    policy::FaultDecision onFault(const policy::FaultInfo &info,
                                  sim::Cycle now) override;

    bool countsRemote(sim::PageId page) const override;

    mem::Scheme schemeOf(sim::PageId page) const override;

    // Introspection for tests and benches.
    const PaTable &paTable() const { return paTable_; }
    const PaCache *paCache() const { return paCache_.get(); }
    const GritConfig &config() const { return config_; }

  private:
    /** PA access when the PA-Cache is disabled (table-only ablation). */
    PaAccessResult recordFaultTableOnly(sim::PageId vpn, bool write);

    /** Latency of the PA machinery for this fault (minus hidden slack). */
    sim::Cycle paLatency(const PaAccessResult &result, sim::Cycle now);

    /** Scheme currently governing @p page (on-touch when unset). */
    mem::Scheme effectiveScheme(sim::PageId page) const;

    GritConfig config_;
    PaTable paTable_;
    std::unique_ptr<PaCache> paCache_;
    NeighborPredictor nap_;
    /** Chaos "padisable" window is open; faults go table-only. */
    bool paCacheChaosDown_ = false;
    // Run counters in the driver's StatSet.
    stats::CounterRef capacityRefaultsCtr_;
    stats::CounterRef triggersCtr_;
    stats::CounterRef changesToDuplicationCtr_;
    stats::CounterRef changesToAccessCounterCtr_;
    stats::CounterRef napAdoptionsCtr_;
    stats::CounterRef napDegradationsCtr_;
    stats::CounterRef napPromotionsCtr_;
};

}  // namespace grit::core

#endif  // GRIT_CORE_GRIT_POLICY_H_
