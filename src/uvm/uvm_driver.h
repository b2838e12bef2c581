/**
 * @file
 * The UVM driver: centralized page table, fault servicing, and the
 * page-placement mechanisms (migration, remote mapping, duplication,
 * write collapse, capacity spills).
 *
 * The driver implements the protocol steps of paper Section II-B with
 * the Table I cost parameters; a policy::PlacementPolicy chooses which
 * mechanism resolves each fault. Implementation is split between
 * uvm_driver.cc (fault path, remote mapping, queries) and migration.cc
 * (migration / duplication / collapse / eviction mechanics).
 */

#ifndef GRIT_UVM_UVM_DRIVER_H_
#define GRIT_UVM_UVM_DRIVER_H_

#include <cstdint>
#include <vector>

#include "gpu/gpu.h"
#include "interconnect/topology.h"
#include "mem/page_geometry.h"
#include "mem/page_table.h"
#include "mem/region_tracker.h"
#include "policy/policy.h"
#include "simcore/resource.h"
#include "simcore/types.h"
#include "stats/counters.h"
#include "stats/latency_breakdown.h"
#include "stats/timeline.h"
#include "uvm/fault.h"
#include "uvm/replica_directory.h"

namespace grit::sim {
class FaultInjector;
class TraceRecorder;
}  // namespace grit::sim

namespace grit::stats {
class IntervalSampler;
}  // namespace grit::stats

namespace grit::uvm {

// The driver's cost model (Table I and Section II-B).

/** Software fault-servicing time on the host per fault. */
inline constexpr sim::Cycle kServiceCycles = 1500;
/**
 * Additional driver work servicing a page-protection fault (write
 * collapse coordination across every replica holder).
 */
inline constexpr sim::Cycle kCollapseServiceCycles = 6000;
/** Concurrent fault-servicing contexts in the driver. */
inline constexpr unsigned kServers = 16;
/** PTE update + fault replay after a resolution. */
inline constexpr sim::Cycle kRemapCycles = 300;
/** CU pipeline drain + cache/TLB flush during an invalidation. */
inline constexpr sim::Cycle kDrainCycles = 1500;
/** Drain cost with Griffin's asynchronous CU draining (ACUD). */
inline constexpr sim::Cycle kDrainCyclesAcud = 150;
/** Remote-GPU translation service time under Trans-FW. */
inline constexpr sim::Cycle kTransFwCycles = 250;
/** Shooting down one remote PTE mapping. */
inline constexpr sim::Cycle kInvalidatePteCycles = 100;
/** Host memory bandwidth available to PA-Table style structures. */
inline constexpr double kHostMemGBs = 100.0;
/** Host memory access latency (PA-Table reads/writebacks). */
inline constexpr sim::Cycle kHostMemAccessCycles = 150;
/** Control-message payload (fault descriptors, invalidations). */
inline constexpr std::uint64_t kMessageBytes = 64;
/**
 * Driver work promoting a fully-resident region to a huge mapping
 * (PTE rewrite + TLB shootdown of the base entries). Only charged
 * when PageGeometry::hugePages is on.
 */
inline constexpr sim::Cycle kPromoteCycles = 1200;
/** Driver work splintering a huge mapping back to base pages. */
inline constexpr sim::Cycle kSplinterCycles = 1800;

static_assert(kServers > 0,
              "the driver needs at least one fault-servicing context");
static_assert(kHostMemGBs > 0.0, "host memory bandwidth must be positive");

/** The driver features a run switches on (Figs. 26 and 28). */
struct UvmConfig
{
    /** Enable Griffin's asynchronous CU draining, ACUD (Section VI-C1). */
    bool acud = false;
    /**
     * Enable Trans-FW (Li et al., HPCA 2023; Section VI-C3): a non-cold
     * fault resolving to a remote mapping fetches the translation from
     * the owning GPU over NVLink instead of round-tripping through the
     * host driver over PCIe.
     */
    bool transFw = false;
};

/** Result of servicing one fault episode. */
struct FaultOutcome
{
    /** Time at which the requester may replay the access. */
    sim::Cycle completion = 0;
    /** True if this call coalesced onto an in-flight episode. */
    bool coalesced = false;
};

/**
 * Observer of page placements (the tree-based neighborhood prefetcher
 * of Section VI-E hooks in here).
 */
class PlacementListener
{
  public:
    virtual ~PlacementListener() = default;
    /** @p page just became resident in @p gpu's memory. */
    virtual void onPlaced(sim::GpuId gpu, sim::PageId page,
                          sim::Cycle now) = 0;
};

/** The centralized UVM driver on the host CPU. */
class UvmDriver
{
  public:
    /**
     * @param config  the ACUD and Trans-FW switches.
     * @param fabric  interconnect topology (shared with the GPUs).
     * @param gpus    non-owning views of all GPUs, indexed by GpuId.
     * @param stats   run-wide counters.
     * @param breakdown run-wide latency breakdown (Fig. 3 categories).
     */
    UvmDriver(const UvmConfig &config, ic::Topology &fabric,
              std::vector<gpu::Gpu *> gpus, stats::StatSet &stats,
              stats::LatencyBreakdown &breakdown,
              const mem::PageGeometry &geometry);

    /**
     * Select the placement policy, which was built on this driver (not
     * owned; must outlive every fault).
     */
    void setPolicy(policy::PlacementPolicy *policy) { policy_ = policy; }

    /**
     * Service a local page fault or page-protection fault raised by
     * @p gpu for @p page at @p now.
     */
    FaultOutcome handleFault(sim::GpuId gpu, sim::PageId page, bool write,
                             bool protection_fault, sim::Cycle now);

    /**
     * Access-counter threshold trigger: migrate the 64 KB counter group
     * containing @p page towards @p gpu (Section II-B2 steps 3-5).
     * @return completion time of the migration burst.
     */
    sim::Cycle counterMigration(sim::GpuId gpu, sim::PageId page,
                                sim::Cycle now);

    // --- Mechanisms (used by the fault path, baselines, and GRIT) ---

    /**
     * Migrate @p page into @p to's memory, invalidating the previous
     * owner and any remote mappings/replicas.
     * @param kind latency category charged (migration vs duplication
     *             bookkeeping differ between schemes).
     */
    sim::Cycle migratePage(sim::PageId page, sim::GpuId to, sim::Cycle now,
                           stats::LatencyKind kind);

    /**
     * Create a replica of @p page in @p to's memory.
     * @param writable_replicas GPS-style subscription: the replica (and
     *        the owner) stay writable; consistency is the policy's
     *        problem (store broadcasts) instead of write collapses.
     */
    sim::Cycle duplicatePage(sim::PageId page, sim::GpuId to,
                             sim::Cycle now,
                             bool writable_replicas = false);

    /**
     * Background prefetch of a host-resident page into @p gpu: occupies
     * PCIe bandwidth and a frame but charges no fault latency.
     * No-op unless the page currently lives on the host.
     */
    sim::Cycle prefetchPage(sim::PageId page, sim::GpuId gpu,
                            sim::Cycle now);

    /** Register a placement observer (prefetcher); may be nullptr. */
    void setListener(PlacementListener *listener) { listener_ = listener; }

    /**
     * Write collapse: invalidate every replica (and the old owner) and
     * make @p writer the exclusive, writable owner.
     */
    sim::Cycle collapsePage(sim::PageId page, sim::GpuId writer,
                            sim::Cycle now);

    /** Establish a remote translation at @p gpu to the current owner. */
    sim::Cycle mapRemote(sim::PageId page, sim::GpuId gpu, sim::Cycle now);

    /**
     * GRIT scheme reset away from duplication: drop all replicas,
     * restoring the owner's exclusive writable copy (Section V-F).
     */
    sim::Cycle resetDuplication(sim::PageId page, sim::Cycle now);

    /** Occupy host memory (PA-Table accesses); returns data-ready time. */
    sim::Cycle hostMemAccess(sim::Cycle now, std::uint64_t bytes);

    /**
     * Chaos capacity-pressure storm: force-evict up to @p pages LRU
     * pages from @p gpu through the regular eviction path (replica
     * drops, heir promotion, host spills with dirty writeback).
     * @return pages actually evicted.
     */
    unsigned injectCapacityPressure(sim::GpuId gpu, unsigned pages,
                                    sim::Cycle now);

    // --- Queries ---

    ReplicaDirectory &directory() { return directory_; }
    const ReplicaDirectory &directory() const { return directory_; }

    /** Centralized page table holding scheme and group bits. */
    mem::PageTable &centralTable() { return centralTable_; }
    const mem::PageTable &centralTable() const { return centralTable_; }

    gpu::Gpu &gpuAt(sim::GpuId id);
    unsigned numGpus() const { return static_cast<unsigned>(gpus_.size()); }
    ic::Topology &fabric() { return fabric_; }
    const mem::PageGeometry &geometry() const { return *geometry_; }

    /** Region promote/splinter bookkeeping (inert without hugePages). */
    const mem::RegionTracker &regionTracker() const { return regions_; }

    /**
     * Splinter @p region's huge mapping if promoted: shoot down the
     * huge translation, unpin the frames, record @p reason.
     * @return completion time (== @p now when not promoted).
     */
    sim::Cycle splinterRegion(sim::PageId region, sim::Cycle now,
                              mem::SplinterReason reason);

    /** Splinter every promoted region (chaos promotion storms).
     *  @return regions splintered. */
    unsigned splinterAllPromoted(sim::Cycle now);
    stats::StatSet &stats() { return stats_; }
    stats::LatencyBreakdown &breakdown() { return breakdown_; }

    /** Local + protection faults serviced (Fig. 18 metric). */
    std::uint64_t totalFaults() const;

    /**
     * Attach a page-event trace sink (also wired into the directory);
     * nullptr disables. Events cost one branch each when detached.
     */
    void setTrace(sim::TraceRecorder *trace);

    /** Attach the per-run timeline sampler; nullptr disables. */
    void setTimeline(stats::IntervalSampler *timeline)
    {
        timeline_ = timeline;
    }

    /** Aggregate queueing delay behind the fault-servicing contexts. */
    sim::Cycle serverQueueDelay() const { return servers_.queueDelay(); }

    /** Attach the chaos fault injector; nullptr disables (default). */
    void setInjector(sim::FaultInjector *injector) { injector_ = injector; }

    /** Chaos injector, if any (policies query it for PA-Cache chaos). */
    sim::FaultInjector *injector() { return injector_; }

  private:
    /** Drain cost considering ACUD. */
    sim::Cycle drainCost() const
    {
        return config_.acud ? kDrainCyclesAcud : kDrainCycles;
    }

    /**
     * Insert @p page into @p to's DRAM, servicing any capacity eviction
     * (replica drop or owner spill to host). Returns the time the frame
     * is ready; eviction costs are charged to @p kind.
     */
    sim::Cycle allocateFrame(sim::GpuId to, sim::PageId page,
                             mem::FrameKind frame_kind, sim::Cycle now,
                             stats::LatencyKind kind);

    /** Handle an evicted victim page at @p gpu. */
    sim::Cycle handleEviction(sim::GpuId gpu, const mem::Eviction &victim,
                              sim::Cycle now, stats::LatencyKind kind);

    /** Invalidate every remote mapping pointing at @p page's copy. */
    sim::Cycle invalidateRemoteMappings(sim::PageId page, sim::Cycle now);

    /**
     * Invalidate every duplication replica of @p page (flush + PTE
     * shootdown at each holder), restoring the owner's writable copy.
     * Costs are charged to @p kind.
     */
    sim::Cycle dropReplicas(sim::PageId page, sim::Cycle now,
                            stats::LatencyKind kind);

    /** Re-install a local mapping the requester already backs in DRAM. */
    sim::Cycle refillMapping(sim::PageId page, sim::GpuId gpu,
                             sim::Cycle now);

    /**
     * Promote @p page's region at @p gpu to a huge mapping when the
     * fault heat and full exclusive residency warrant it. Called on the
     * fault path; inert (one branch) without hugePages.
     * @return completion time (== @p now when nothing promoted).
     */
    sim::Cycle maybePromote(sim::GpuId gpu, sim::PageId page,
                            sim::Cycle now);

    /** splinterRegion() for the region containing @p page. */
    sim::Cycle splinterIfPromoted(sim::PageId page, sim::Cycle now,
                                  mem::SplinterReason reason);

    /** Count one @p kind occurrence on the run timeline, if sampling. */
    void timelineRecord(stats::TimelineKind kind, sim::Cycle now);

    UvmConfig config_;
    ic::Topology &fabric_;
    std::vector<gpu::Gpu *> gpus_;
    stats::StatSet &stats_;
    // The fault path's counters, resolved on first increment (a
    // StatSet::counter() call per fault allocated a std::string).
    stats::CounterRef coalescedFaultsCtr_{stats_, "uvm.coalesced_faults"};
    stats::CounterRef coldMigrationsCtr_{stats_, "uvm.cold_migrations"};
    stats::CounterRef collapsesCtr_{stats_, "uvm.collapses"};
    stats::CounterRef counterMigrationsCtr_{stats_, "uvm.counter_migrations"};
    stats::CounterRef duplicationsCtr_{stats_, "uvm.duplications"};
    stats::CounterRef hostMigrationsCtr_{stats_, "uvm.host_migrations"};
    stats::CounterRef localFaultsCtr_{stats_, "uvm.local_faults"};
    stats::CounterRef migrationsCtr_{stats_, "uvm.migrations"};
    stats::CounterRef ownerEvictionsCtr_{stats_, "uvm.owner_evictions"};
    stats::CounterRef prefetchesCtr_{stats_, "uvm.prefetches"};
    stats::CounterRef protectionFaultsCtr_{stats_, "uvm.protection_faults"};
    stats::CounterRef refillsCtr_{stats_, "uvm.refills"};
    stats::CounterRef remoteInvalidationsCtr_{stats_,
                                              "uvm.remote_invalidations"};
    stats::CounterRef remoteMapsCtr_{stats_, "uvm.remote_maps"};
    stats::CounterRef replicaEvictionsCtr_{stats_, "uvm.replica_evictions"};
    stats::CounterRef replicaInvalidationsCtr_{stats_,
                                               "uvm.replica_invalidations"};
    stats::CounterRef schemeResetCollapsesCtr_{stats_,
                                               "uvm.scheme_reset_collapses"};
    stats::CounterRef spillWritebacksCtr_{stats_, "uvm.spill_writebacks"};
    stats::CounterRef spillsCtr_{stats_, "uvm.spills"};
    stats::CounterRef staleReplicaEntriesCtr_{stats_,
                                              "uvm.stale_replica_entries"};
    stats::CounterRef transfwForwardsCtr_{stats_, "uvm.transfw_forwards"};
    stats::LatencyBreakdown &breakdown_;
    const mem::PageGeometry *geometry_;
    mem::RegionTracker regions_;

    /** Notify the listener (if any) of a new placement. */
    void
    notifyPlaced(sim::GpuId gpu, sim::PageId page, sim::Cycle now)
    {
        if (listener_ != nullptr)
            listener_->onPlaced(gpu, page, now);
    }

    policy::PlacementPolicy *policy_ = nullptr;
    PlacementListener *listener_ = nullptr;
    sim::FaultInjector *injector_ = nullptr;
    sim::TraceRecorder *trace_ = nullptr;
    stats::IntervalSampler *timeline_ = nullptr;
    mem::PageTable centralTable_;
    ReplicaDirectory directory_;
    FaultCoalescer coalescer_;
    sim::ServerPool servers_;
    sim::BandwidthResource hostMem_;
};

}  // namespace grit::uvm

#endif  // GRIT_UVM_UVM_DRIVER_H_
