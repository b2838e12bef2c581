/**
 * @file
 * The per-GPU model: compute-unit access lanes, TLB hierarchy, GMMU,
 * L2 data cache, local DRAM (bandwidth + capacity), remote-access
 * counters, and the local page table.
 *
 * Geometry defaults follow Table I of the paper. The 64 compute units
 * are modeled as 64 concurrent access lanes, each with a private L1 TLB;
 * lane throughput bounded by translation/data latencies reproduces the
 * memory-level-parallelism behaviour that makes page faults expensive.
 */

#ifndef GRIT_GPU_GPU_H_
#define GRIT_GPU_GPU_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "gpu/gmmu.h"
#include "mem/access_counter.h"
#include "mem/data_cache.h"
#include "mem/dram_manager.h"
#include "mem/page_geometry.h"
#include "mem/page_table.h"
#include "mem/tlb.h"
#include "simcore/flat_map.h"
#include "simcore/resource.h"
#include "simcore/types.h"

namespace grit::gpu {

/** Per-GPU configuration (Table I defaults). */
struct GpuConfig
{
    unsigned lanes = 64;  //!< concurrent access lanes (one per CU)

    unsigned l1TlbEntries = 32;
    unsigned l1TlbWays = 32;  //!< fully associative
    sim::Cycle l1TlbLatency = 1;

    unsigned l2TlbEntries = 512;
    unsigned l2TlbWays = 16;
    sim::Cycle l2TlbLatency = 10;

    GmmuConfig gmmu{};

    std::uint64_t l2CacheBytes = 256 * 1024;
    unsigned l2CacheWays = 16;
    sim::Cycle l2CacheLatency = 40;

    double dramGBs = 900.0;      //!< local HBM bandwidth
    sim::Cycle dramLatency = 200;
    std::uint64_t dramCapacityPages = 0;  //!< 0 = unlimited

    unsigned counterThreshold = 256;  //!< access-counter trigger

    sim::Cycle laneIssueInterval = 8;  //!< compute gap between accesses

    /**
     * Outstanding remote transactions towards peer GPUs (the RDMA
     * engine's transaction table) and towards host memory over PCIe
     * (far smaller in practice). These bound remote-access throughput,
     * which MLP cannot hide.
     */
    unsigned nvlinkSlots = 16;
    unsigned pcieSlots = 12;

    /**
     * Outstanding far-faults the GMMU sustains: each pending fault
     * holds a fault-queue slot until the UVM driver resolves it, so
     * fault storms throttle the whole GPU (the paper's observation
     * that fault counts track performance).
     */
    unsigned faultSlots = 16;
};

/** Outcome of a translation attempt by a lane. */
struct TranslateOutcome
{
    /** PTE invalid in the local page table: raise a local page fault. */
    bool fault = false;
    /** Write hit a read-only duplication replica: protection fault. */
    bool protectionFault = false;
    /** When the translation (or the fault) is available. */
    sim::Cycle readyAt = 0;
    /** Cycles spent on the local walk after the L2 TLB miss ("Local"). */
    sim::Cycle walkCycles = 0;
    /** Valid record when no fault was raised. */
    const mem::PteRecord *rec = nullptr;
};

/** One GPU of the multi-GPU system. */
class Gpu
{
  public:
    /**
     * @param geometry the system page geometry (base page size, huge
     *        regions). Held by reference — the caller's geometry (the
     *        Simulator's SystemConfig copy) must outlive this GPU.
     */
    Gpu(sim::GpuId id, const GpuConfig &config,
        const mem::PageGeometry &geometry);

    sim::GpuId id() const { return id_; }
    const GpuConfig &config() const { return config_; }
    const mem::PageGeometry &geometry() const { return *geometry_; }

    unsigned lanes() const { return config_.lanes; }
    unsigned linesPerPage() const { return linesPerPage_; }

    /**
     * Attempt to translate @p page for @p lane.
     * Walks L1 TLB -> L2 TLB -> GMMU page-table walk -> local PT.
     */
    TranslateOutcome translate(unsigned lane, sim::PageId page, bool write,
                               sim::Cycle now);

    /** Install TLB entries after a successful translation or fault fix. */
    void fillTlbs(unsigned lane, sim::PageId page);

    /** Shoot down one page from TLBs, L2 cache, and the walk cache. */
    void invalidatePage(sim::PageId page);

    // -- dynamic huge pages (docs/PAGESIZE.md) ------------------------

    /**
     * Overlay a huge translation over @p region: one TLB entry / one
     * walk (keyed mem::hugeKey(region)) covers every base page. Base
     * PTEs stay valid underneath; their stale per-page TLB entries are
     * shot down (translation only — the cached data is unchanged).
     */
    void promoteRegion(sim::PageId region);

    /** Drop @p region's huge overlay and its TLB entries; subsequent
     *  translations fall back to the per-base-page path. */
    void splinterRegion(sim::PageId region);

    /** True when @p region currently translates via a huge mapping. */
    bool hugeMapped(sim::PageId region) const
    {
        return hugeRegions_.contains(region);
    }

    /** Live huge mappings (audit reconciliation). */
    std::uint64_t hugeMappingCount() const { return hugeRegions_.size(); }

    /** Deterministic view of the promoted regions (audit use). */
    const sim::FlatMap<sim::PageId, unsigned char> &
    hugeRegions() const
    {
        return hugeRegions_;
    }

    /**
     * The L1 shootdown filter: translation key -> bitmask of lanes
     * (lane mod 64) whose L1 TLB holds it (audit use).
     */
    const sim::FlatMap<sim::PageId, std::uint64_t> &
    l1Holders() const
    {
        return l1Holders_;
    }

    /**
     * True when each lane owns its filter bit (lanes <= 64), so the
     * filter is exact: a bit is set iff that lane's L1 TLB holds the
     * key. Wider GPUs share bits and keep a conservative superset.
     */
    bool exactHolders() const { return config_.lanes <= 64; }

    /**
     * Full pipeline drain + cache/TLB flush, as UVM performs on the
     * GPU that owns a migrating or collapsing page.
     * @param drain_cycles  CU drain time (reduced under ACUD).
     * @return completion time of the flush.
     */
    sim::Cycle flushForInvalidation(sim::Cycle now, sim::Cycle drain_cycles);

    /** L2 data-cache access for a global line id; true on hit. */
    bool cacheAccess(std::uint64_t line_id)
    {
        return l2Cache_.access(line_id);
    }

    /** Occupy local DRAM for @p bytes; returns data-ready time. */
    sim::Cycle dramAccess(sim::Cycle now, std::uint64_t bytes);

    /**
     * Hold an outstanding-remote-transaction slot for @p service
     * cycles starting at @p now; returns the slot-adjusted completion.
     * @param to_host true for PCIe (host memory) transactions.
     */
    sim::Cycle remoteSlot(sim::Cycle now, sim::Cycle service,
                          bool to_host);

    /** Hold a GMMU fault-queue slot for @p service cycles. */
    sim::Cycle faultSlot(sim::Cycle now, sim::Cycle service);

    mem::PageTable &pageTable() { return pageTable_; }
    const mem::PageTable &pageTable() const { return pageTable_; }
    mem::DramManager &dram() { return dram_; }
    const mem::DramManager &dram() const { return dram_; }
    mem::AccessCounterTable &counters() { return counters_; }
    mem::Tlb &l2Tlb() { return l2Tlb_; }
    const mem::Tlb &l2Tlb() const { return l2Tlb_; }
    /** Per-lane L1 TLBs (audit use). */
    const std::vector<mem::Tlb> &l1Tlbs() const { return l1Tlbs_; }
    mem::DataCache &l2Cache() { return l2Cache_; }
    Gmmu &gmmu() { return gmmu_; }

    /** Route page-walk trace events to @p trace; nullptr disables. */
    void setTrace(sim::TraceRecorder *trace)
    {
        gmmu_.setTrace(trace, id_);
    }

    std::uint64_t flushes() const { return flushes_; }

  private:
    /**
     * The TLB/walk key @p page translates under: its region's huge key
     * while the region is promoted, the page id itself otherwise. With
     * no promoted regions this is a branch and a size() check — the
     * feature-off fast path stays byte-identical.
     */
    sim::PageId translationKey(sim::PageId page) const
    {
        if (hugeRegions_.size() == 0)
            return page;
        const sim::PageId region = geometry_->regionOf(page);
        return hugeRegions_.contains(region) ? mem::hugeKey(region) : page;
    }

    /** Shoot down one translation key from the TLBs (not the data
     *  cache: promote/splinter moves no data). */
    void invalidateTranslation(sim::PageId key);

    sim::GpuId id_;
    GpuConfig config_;
    const mem::PageGeometry *geometry_;
    unsigned linesPerPage_;

    std::vector<mem::Tlb> l1Tlbs_;  //!< one per lane
    /**
     * Shootdown filter: key -> bitmask of lanes (mod 64) whose L1 TLB
     * holds it. Set on every fill, erased once the key is shot down,
     * cleared on full flushes; with exactHolders() a lane's bit is also
     * cleared when its L1 TLB displaces the key and holds no second
     * copy, so the filter holds at most lanes x l1TlbEntries keys. A
     * key absent from the index is provably in no L1 TLB, so
     * invalidatePage() skips the per-lane set scans — the dominant cost
     * of remote invalidations — without changing any TLB state
     * transition. False negatives cannot happen.
     */
    sim::FlatMap<sim::PageId, std::uint64_t> l1Holders_;
    mem::Tlb l2Tlb_;
    Gmmu gmmu_;
    mem::DataCache l2Cache_;
    sim::BandwidthResource dramPipe_;
    sim::ServerPool nvlinkSlots_;
    sim::ServerPool pcieSlots_;
    sim::ServerPool faultSlots_;
    mem::DramManager dram_;
    mem::AccessCounterTable counters_;
    mem::PageTable pageTable_;

    /** Regions this GPU currently maps huge (value unused). */
    sim::FlatMap<sim::PageId, unsigned char> hugeRegions_;

    std::uint64_t flushes_ = 0;
};

}  // namespace grit::gpu

#endif  // GRIT_GPU_GPU_H_
