#include "gpu/gpu.h"

#include <cassert>
#include <optional>
#include <string>

namespace grit::gpu {

namespace {

std::vector<mem::Tlb>
makeL1Tlbs(sim::GpuId id, const GpuConfig &config)
{
    std::vector<mem::Tlb> tlbs;
    tlbs.reserve(config.lanes);
    for (unsigned lane = 0; lane < config.lanes; ++lane) {
        tlbs.emplace_back("gpu" + std::to_string(id) + ".l1tlb." +
                              std::to_string(lane),
                          kL1TlbEntries, kL1TlbWays, kL1TlbLatency);
    }
    return tlbs;
}

unsigned
counterGroupPages(const mem::PageGeometry &geometry)
{
    // Access counters track 64 KB groups; with 2 MB pages one page is
    // already larger than a group, so count per page.
    const std::uint64_t pages = sim::kCounterGroupBytes / geometry.baseSize;
    return pages == 0 ? 1u : static_cast<unsigned>(pages);
}

}  // namespace

Gpu::Gpu(sim::GpuId id, const GpuConfig &config,
         const mem::PageGeometry &geometry)
    : id_(id),
      config_(config),
      geometry_(&geometry),
      linesPerPage_(
          static_cast<unsigned>(geometry.baseSize / sim::kLineSize)),
      l1Tlbs_(makeL1Tlbs(id, config)),
      l2Tlb_("gpu" + std::to_string(id) + ".l2tlb", kL2TlbEntries,
             kL2TlbWays, kL2TlbLatency),
      l2Cache_("gpu" + std::to_string(id) + ".l2cache", kL2CacheBytes,
               kL2CacheWays, sim::kLineSize, kL2CacheLatency),
      dramPipe_("gpu" + std::to_string(id) + ".dram", kDramGBs),
      nvlinkSlots_("gpu" + std::to_string(id) + ".nvslots",
                   config.nvlinkSlots),
      pcieSlots_("gpu" + std::to_string(id) + ".pcieslots",
                 config.pcieSlots),
      faultSlots_("gpu" + std::to_string(id) + ".faultslots",
                  config.faultSlots),
      dram_(config.dramCapacityPages),
      counters_(counterGroupPages(geometry), config.counterThreshold)
{
    assert(config.lanes > 0);
    assert(geometry.baseSize % sim::kLineSize == 0);
    if (geometry.hugePages)
        dram_.configureRegions(geometry.basePagesPerHuge());
}

TranslateOutcome
Gpu::translate(unsigned lane, sim::PageId page, bool write, sim::Cycle now)
{
    assert(lane < config_.lanes);
    TranslateOutcome out;

    // A promoted region translates under one huge key: every base page
    // inside it shares the TLB entry and the (single) walk.
    const sim::PageId key = translationKey(page);

    sim::Cycle at = now + kL1TlbLatency;
    const bool l1_hit = l1Tlbs_[lane].lookup(key);
    if (!l1_hit) {
        at += kL2TlbLatency;
        const bool l2_hit = l2Tlb_.lookup(key);
        if (!l2_hit) {
            // GMMU page-table walk after the L2 TLB miss.
            const WalkResult walk = gmmu_.walk(key, at);
            out.walkCycles = walk.completion - at;
            at = walk.completion;
        }
    }

    const mem::PteRecord *rec = pageTable_.find(page);
    if (rec == nullptr || !rec->pte.valid()) {
        // A TLB hit for an unmapped page can only arise from a missed
        // shootdown; treat it as the local page fault it would become.
        out.fault = true;
        out.readyAt = at;
        return out;
    }
    if (write && rec->readOnlyReplica) {
        out.protectionFault = true;
        out.readyAt = at;
        return out;
    }

    if (!l1_hit)
        fillTlbs(lane, page);
    out.readyAt = at;
    out.rec = rec;
    return out;
}

void
Gpu::fillTlbs(unsigned lane, sim::PageId page)
{
    assert(lane < config_.lanes);
    const sim::PageId key = translationKey(page);
    const std::uint64_t bit = std::uint64_t{1} << (lane & 63);
    const std::optional<sim::PageId> displaced = l1Tlbs_[lane].insert(key);
    if (displaced && exactHolders() && !l1Tlbs_[lane].holds(*displaced)) {
        // This lane no longer holds the displaced key: clear its bit.
        std::uint64_t *mask = l1Holders_.find(*displaced);
        assert(mask != nullptr && (*mask & bit) != 0);
        if (mask != nullptr && (*mask &= ~bit) == 0)
            l1Holders_.erase(*displaced);
    }
    l1Holders_[key] |= bit;
    l2Tlb_.insert(key);
}

void
Gpu::invalidateTranslation(sim::PageId key)
{
    if (const std::uint64_t *mask = l1Holders_.find(key)) {
        for (unsigned lane = 0; lane < config_.lanes; ++lane) {
            if ((*mask >> (lane & 63)) & 1)
                l1Tlbs_[lane].invalidate(key);
        }
        l1Holders_.erase(key);
    }
    l2Tlb_.invalidate(key);
}

void
Gpu::invalidatePage(sim::PageId page)
{
    invalidateTranslation(page);
    // Large pages span more lines than a set scan is worth; flush.
    if (linesPerPage_ > 1024)
        l2Cache_.flushAll();
    else
        l2Cache_.invalidatePage(page, linesPerPage_);
}

void
Gpu::promoteRegion(sim::PageId region)
{
    assert(geometry_->hugePages);
    if (hugeRegions_.contains(region))
        return;
    hugeRegions_[region] = 1;
    // The per-base-page TLB entries are now stale (they bypass the huge
    // mapping): shoot the translations down. The data cache keeps its
    // lines — promotion moves no data.
    const sim::PageId first = geometry_->regionFirstPage(region);
    const std::uint64_t pages = geometry_->basePagesPerHuge();
    for (std::uint64_t i = 0; i < pages; ++i)
        invalidateTranslation(first + i);
}

void
Gpu::splinterRegion(sim::PageId region)
{
    if (!hugeRegions_.erase(region))
        return;
    invalidateTranslation(mem::hugeKey(region));
}

sim::Cycle
Gpu::flushForInvalidation(sim::Cycle now, sim::Cycle drain_cycles)
{
    for (auto &tlb : l1Tlbs_)
        tlb.flushAll();
    l1Holders_.clear();  // flush emptied every L1; drop the filter
    l2Tlb_.flushAll();
    l2Cache_.flushAll();
    gmmu_.flushWalkCache();
    ++flushes_;
    return now + drain_cycles;
}

sim::Cycle
Gpu::dramAccess(sim::Cycle now, std::uint64_t bytes)
{
    return dramPipe_.acquire(now, bytes) + kDramLatency;
}

sim::Cycle
Gpu::remoteSlot(sim::Cycle now, sim::Cycle service, bool to_host)
{
    return (to_host ? pcieSlots_ : nvlinkSlots_).acquire(now, service);
}

sim::Cycle
Gpu::faultSlot(sim::Cycle now, sim::Cycle service)
{
    return faultSlots_.acquire(now, service);
}

}  // namespace grit::gpu
