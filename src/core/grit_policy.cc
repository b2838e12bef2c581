#include "core/grit_policy.h"

#include <cassert>

#include "core/scheme_decision.h"
#include "simcore/fault_injector.h"
#include "uvm/uvm_driver.h"

namespace grit::core {

namespace {

/** Pages start under on-touch until a decision (Section V-B). */
constexpr mem::Scheme kDefaultScheme = mem::Scheme::kOnTouch;

}  // namespace

GritPolicy::GritPolicy(uvm::UvmDriver &driver, const GritConfig &config)
    : PlacementPolicy(driver),
      config_(config),
      nap_(driver.centralTable()),
      capacityRefaultsCtr_(driver.stats(), "grit.capacity_refaults"),
      triggersCtr_(driver.stats(), "grit.triggers"),
      changesToDuplicationCtr_(driver.stats(),
                               "grit.changes_to_duplication"),
      changesToAccessCounterCtr_(driver.stats(),
                                 "grit.changes_to_access_counter"),
      napAdoptionsCtr_(driver.stats(), "grit.nap_adoptions"),
      napDegradationsCtr_(driver.stats(), "grit.nap_degradations"),
      napPromotionsCtr_(driver.stats(), "grit.nap_promotions")
{
    assert(config_.faultThreshold > 0);
    if (config_.paCacheEnabled) {
        paCache_ = std::make_unique<PaCache>(paTable_, kPaCacheEntries,
                                             kPaCacheWays);
    }
}

mem::Scheme
GritPolicy::effectiveScheme(sim::PageId page) const
{
    const mem::Scheme s = driver_.centralTable().scheme(page);
    return s == mem::Scheme::kNone ? kDefaultScheme : s;
}

mem::Scheme
GritPolicy::schemeOf(sim::PageId page) const
{
    return effectiveScheme(page);
}

bool
GritPolicy::countsRemote(sim::PageId page) const
{
    return effectiveScheme(page) == mem::Scheme::kAccessCounter;
}

PaAccessResult
GritPolicy::recordFaultTableOnly(sim::PageId vpn, bool write)
{
    PaAccessResult result;
    PaEntry entry;
    if (const PaEntry *found = paTable_.find(vpn)) {
        entry = *found;
        result.tableHit = true;
    }
    entry.faultCounter += 1;
    entry.writeSeen = entry.writeSeen || write;
    result.faultCount = entry.faultCounter;
    result.writeSeen = entry.writeSeen;
    if (entry.faultCounter >= config_.faultThreshold) {
        result.triggered = true;
        paTable_.erase(vpn);
    } else {
        paTable_.put(vpn, entry);
    }
    return result;
}

sim::Cycle
GritPolicy::paLatency(const PaAccessResult &result, sim::Cycle now)
{
    sim::Cycle duration = 0;
    if (config_.paCacheEnabled && result.cacheHit) {
        duration = kPaCacheHitCycles;
    } else {
        // PA-Table touches are host-memory accesses: charge their
        // serial latency, and occupy host memory bandwidth for the
        // utilization accounting (off the latency path to keep the
        // composed-latency model stable).
        duration = sim::Cycle{kPaTableAccessesOnMiss} *
                   uvm::kHostMemAccessCycles;
        for (unsigned i = 0; i < kPaTableAccessesOnMiss; ++i)
            driver_.hostMemAccess(now, kPaEntryBytes);
    }
    if (result.wroteBack) {
        // Write-backs occupy bandwidth but sit off the critical path.
        driver_.hostMemAccess(now, kPaEntryBytes);
    }
    // Most of the PA access hides behind the centralized PT walk.
    return duration > kPaHiddenSlackCycles ? duration - kPaHiddenSlackCycles
                                           : 0;
}

policy::FaultDecision
GritPolicy::onFault(const policy::FaultInfo &info, sim::Cycle now)
{
    auto &central = driver_.centralTable();

    // A refault on a page the capacity manager spilled to the host
    // (owner is the host, no replicas, not a protection fault) carries
    // no sharing signal — the fault-aware initiator's premise is that
    // repeated faults indicate multi-GPU sharing (Section V-B). Such
    // faults re-place the page under the current scheme without
    // advancing the PA fault counter.
    const bool capacity_refault = !info.coldTouch &&
                                  !info.protectionFault &&
                                  info.owner == sim::kHostId &&
                                  info.replicaCount == 0;

    // Chaos perturbations against the PA-Cache: a "paflush" drops all
    // cached fault counts on a period boundary (state loss; the policy
    // repopulates); a "padisable" window writes the cache back once and
    // then degrades gracefully to the in-memory PA-Table.
    sim::FaultInjector *chaos = driver_.injector();
    if (chaos != nullptr && paCache_ != nullptr) {
        if (chaos->paFlushDue(now)) {
            paCache_->invalidateAll();
            chaos->notePaFlush();
        }
        const bool down = chaos->paCacheDown(now);
        if (down && !paCacheChaosDown_)
            paCache_->writeBackAll();
        paCacheChaosDown_ = down;
    }

    // --- Fault-Aware Initiator: record this fault in the PA machinery.
    const bool use_cache = config_.paCacheEnabled && !paCacheChaosDown_;
    PaAccessResult pa;
    sim::Cycle overhead = 0;
    if (!capacity_refault) {
        const bool write_fault = info.write || info.protectionFault;
        pa = use_cache ? paCache_->recordFault(info.page, write_fault,
                                               config_.faultThreshold)
                       : recordFaultTableOnly(info.page, write_fault);
        if (config_.paCacheEnabled && !use_cache)
            chaos->notePaTableFallback();
        overhead = paLatency(pa, now);
    } else {
        capacityRefaultsCtr_.inc();
    }

    if (pa.triggered) {
        triggersCtr_.inc();
        const mem::Scheme old_scheme = effectiveScheme(info.page);
        const mem::Scheme new_scheme = decideScheme(pa.writeSeen);

        if (new_scheme != old_scheme) {
            central.setScheme(info.page, new_scheme);
            (new_scheme == mem::Scheme::kDuplication
                 ? changesToDuplicationCtr_
                 : changesToAccessCounterCtr_)
                .inc();

            // Leaving duplication requires dropping stale replicas
            // (Section V-F consistency reset).
            if (old_scheme == mem::Scheme::kDuplication)
                driver_.resetDuplication(info.page, now);

            if (config_.napEnabled) {
                const NapOutcome out =
                    nap_.onSchemeChange(info.page, new_scheme);
                napAdoptionsCtr_.inc(out.adopted.size());
                if (out.degraded)
                    napDegradationsCtr_.inc();
                if (out.groupPages > 1)
                    napPromotionsCtr_.inc();
                if (new_scheme != mem::Scheme::kDuplication) {
                    for (sim::PageId p : out.adopted)
                        driver_.resetDuplication(p, now);
                }
            }
        }
        // When the decision matches the current scheme the paper skips
        // all group checks to avoid promotion/degradation ping-pong.
    }

    // --- Route the fault through the scheme now in force.
    switch (effectiveScheme(info.page)) {
      case mem::Scheme::kAccessCounter:
        return {policy::FaultAction::kMapRemote, overhead};
      case mem::Scheme::kDuplication:
        return {policy::FaultAction::kDuplicate, overhead};
      case mem::Scheme::kOnTouch:
      case mem::Scheme::kNone:
        break;
    }
    return {policy::FaultAction::kMigrate, overhead};
}

}  // namespace grit::core
