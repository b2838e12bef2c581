/**
 * @file
 * UvmDriver mechanics: page migration, duplication, write collapse,
 * replica drops, remote-mapping shootdowns, and capacity evictions.
 *
 * Protocol steps follow paper Section II-B: invalidations flush the
 * in-flight pipeline, caches, and TLBs of the GPUs holding the page
 * before data moves; transfers occupy the NVLink/PCIe fabric.
 */

#include <algorithm>
#include <cassert>

#include "simcore/fault_injector.h"
#include "simcore/trace_recorder.h"
#include "uvm/uvm_driver.h"

namespace grit::uvm {

sim::Cycle
UvmDriver::invalidateRemoteMappings(sim::PageId page, sim::Cycle now)
{
    PageInfo &info = directory_.info(page);
    sim::Cycle done = now;
    for (sim::GpuId mapper : info.remoteMappers()) {
        gpu::Gpu &g = gpuAt(mapper);
        g.pageTable().invalidate(page);
        g.invalidatePage(page);
        sim::Cycle t = fabric_.message(now, sim::kHostId, mapper,
                                       kMessageBytes);
        t += kInvalidatePteCycles;
        t = fabric_.message(t, mapper, sim::kHostId, kMessageBytes);
        done = std::max(done, t);
        remoteInvalidationsCtr_.inc();
    }
    info.clearRemoteMappers();
    return done;
}

sim::Cycle
UvmDriver::dropReplicas(sim::PageId page, sim::Cycle now,
                        stats::LatencyKind kind)
{
    PageInfo &info = directory_.info(page);
    sim::Cycle done = now;
    for (sim::GpuId holder : info.replicas()) {
        gpu::Gpu &g = gpuAt(holder);
        sim::Cycle t = fabric_.message(now, sim::kHostId, holder,
                                       kMessageBytes);
        t = g.flushForInvalidation(t, drainCost());
        g.pageTable().invalidate(page);
        g.dram().erase(page);
        t = fabric_.message(t, holder, sim::kHostId, kMessageBytes);
        done = std::max(done, t);
        replicaInvalidationsCtr_.inc();
    }
    directory_.clearReplicas(page, now);

    // With no replicas left the owner's copy is exclusive again.
    if (info.owner() >= 0) {
        gpu::Gpu &owner = gpuAt(info.owner());
        if (mem::PteRecord *rec = owner.pageTable().find(page)) {
            if (rec->pte.valid()) {
                rec->pte.setWritable(true);
                rec->setReadOnlyReplica(false);
            }
        }
    }
    breakdown_.add(kind, done - now);
    return done;
}

sim::Cycle
UvmDriver::handleEviction(sim::GpuId gpu, const mem::Eviction &victim,
                          sim::Cycle now, stats::LatencyKind kind)
{
    // Losing any frame of a promoted region ends its full residency
    // (the pin only defers this to the all-pinned fallback / chaos
    // storms): splinter back to base pages before the shootdown.
    now = splinterIfPromoted(victim.page, now,
                             mem::SplinterReason::kEviction);

    PageInfo &info = directory_.info(victim.page);
    gpu::Gpu &g = gpuAt(gpu);
    g.pageTable().invalidate(victim.page);
    g.invalidatePage(victim.page);
    timelineRecord(stats::TimelineKind::kEviction, now);
    if (trace_)
        trace_->record("evict", "uvm", now, 0, gpu, victim.page);

    if (victim.kind == mem::FrameKind::kReplica) {
        // A dropped replica loses nothing: the owner still has the data.
        directory_.removeReplica(victim.page, gpu, now);
        replicaEvictionsCtr_.inc();
        if (info.replicas().empty() && info.owner() >= 0 &&
            info.owner() != gpu) {
            gpu::Gpu &owner = gpuAt(info.owner());
            if (mem::PteRecord *rec = owner.pageTable().find(victim.page)) {
                if (rec->pte.valid()) {
                    rec->pte.setWritable(true);
                    rec->setReadOnlyReplica(false);
                }
            }
        }
        return now + kInvalidatePteCycles;
    }

    // An owned page was evicted; translations to this copy are stale.
    ownerEvictionsCtr_.inc();
    now = invalidateRemoteMappings(victim.page, now);
    while (!info.replicas().empty()) {
        // Promote a replica to be the new authoritative copy, dropping
        // any stale directory entries whose frames are already gone.
        const sim::GpuId heir = info.replicas().front();
        directory_.removeReplica(victim.page, heir, now);
        if (heir == gpu || !gpuAt(heir).dram().resident(victim.page)) {
            staleReplicaEntriesCtr_.inc();
            continue;
        }
        info.setOwner(heir);
        gpuAt(heir).dram().setKind(victim.page, mem::FrameKind::kOwned);
        // The heir's mapping stays write-protected while other replicas
        // remain; refresh its record to owned-local.
        const bool write_protected = !info.replicas().empty();
        gpuAt(heir).pageTable().install(victim.page,
                                        mem::MappingKind::kLocal, heir,
                                        !write_protected, write_protected);
        return now + kInvalidatePteCycles;
    }

    // Spill to host memory. Clean pages drop without a writeback; the
    // spill time folds into the span the caller charges to @p kind.
    (void)kind;
    spillsCtr_.inc();
    sim::Cycle t = now;
    if (info.dirty()) {
        t = fabric_.transfer(now, gpu, sim::kHostId, geometry_->baseSize);
        info.setDirty(false);
        spillWritebacksCtr_.inc();
    }
    info.setOwner(sim::kHostId);
    if (trace_)
        trace_->record("spill", "uvm", now, t - now, gpu, victim.page);
    return t;
}

sim::Cycle
UvmDriver::allocateFrame(sim::GpuId to, sim::PageId page,
                         mem::FrameKind frame_kind, sim::Cycle now,
                         stats::LatencyKind kind)
{
    gpu::Gpu &g = gpuAt(to);
    if (g.dram().resident(page)) {
        g.dram().touch(page);
        g.dram().setKind(page, frame_kind);
        return now;
    }
    const std::optional<mem::Eviction> victim =
        g.dram().insert(page, frame_kind);
    if (victim.has_value())
        now = handleEviction(to, *victim, now, kind);
    return now;
}

sim::Cycle
UvmDriver::migratePage(sim::PageId page, sim::GpuId to, sim::Cycle now,
                       stats::LatencyKind kind)
{
    PageInfo &info = directory_.info(page);
    const sim::GpuId from = info.owner();
    const sim::Cycle start = now;

    if (from == to && gpuAt(to).dram().resident(page)) {
        // Data is already here; only the translation needs repair.
        return refillMapping(page, to, now);
    }

    // Graceful degradation under chaos capacity pressure: when the
    // target GPU is hard-full during a storm, migrating in would only
    // amplify the eviction churn — fall back to a remote mapping and
    // leave the data where it is.
    if (injector_ != nullptr && from != to &&
        injector_->pressureActive(now)) {
        const mem::DramManager &dram = gpuAt(to).dram();
        if (dram.capacity() != 0 && dram.size() >= dram.capacity() &&
            !dram.resident(page)) {
            injector_->noteMigrationFallback();
            info.setTouched(true);
            const sim::Cycle done = mapRemote(page, to, now);
            breakdown_.add(kind, done - start);
            timelineRecord(stats::TimelineKind::kRemoteAccess, start);
            return done;
        }
    }

    sim::Cycle t = now;
    // Migrating a page out of a promoted region breaks the huge
    // mapping: splinter so the per-page shootdown below is coherent.
    t = splinterIfPromoted(page, t, mem::SplinterReason::kWriteSharing);
    // Any duplication replicas become stale once the page moves.
    if (!info.replicas().empty())
        t = dropReplicas(page, t, kind);
    // Remote translations point at the old copy; shoot them down.
    t = std::max(t, invalidateRemoteMappings(page, t));

    // Invalidate and flush the previous owner.
    if (from >= 0) {
        gpu::Gpu &owner = gpuAt(from);
        sim::Cycle f = fabric_.message(t, sim::kHostId, from, kMessageBytes);
        f = owner.flushForInvalidation(f, drainCost());
        owner.pageTable().invalidate(page);
        owner.dram().erase(page);
        t = fabric_.message(f, from, sim::kHostId, kMessageBytes);
    }

    // Move the data and allocate the destination frame.
    t = fabric_.transfer(t, from, to, geometry_->baseSize);
    t = allocateFrame(to, page, mem::FrameKind::kOwned, t, kind);

    info.setOwner(to);
    info.setTouched(true);
    gpuAt(to).pageTable().install(page, mem::MappingKind::kLocal, to,
                                  /*writable=*/true);
    t += kRemapCycles;

    breakdown_.add(kind, t - start);
    (from >= 0 ? migrationsCtr_ : hostMigrationsCtr_).inc();
    timelineRecord(stats::TimelineKind::kMigration, start);
    if (trace_)
        trace_->record("migrate", "uvm", start, t - start, to, page, from);
    notifyPlaced(to, page, t);
    return t;
}

sim::Cycle
UvmDriver::duplicatePage(sim::PageId page, sim::GpuId to, sim::Cycle now,
                         bool writable_replicas)
{
    PageInfo &info = directory_.info(page);
    const sim::GpuId from = info.owner();
    const sim::Cycle start = now;
    assert(from != to && !info.hasReplica(to));

    // If `to` had a remote mapping it is superseded by the replica.
    if (info.hasRemoteMapper(to))
        info.removeRemoteMapper(to);

    // Write-sharing (the canonical Mosaic splinter trigger): a replica
    // inside a promoted region forces the owner back to base pages so
    // per-4K write-protection and collapse keep working.
    now = splinterIfPromoted(page, now, mem::SplinterReason::kWriteSharing);

    sim::Cycle t = fabric_.transfer(now, from, to, geometry_->baseSize);
    t = allocateFrame(to, page, mem::FrameKind::kReplica, t,
                      stats::LatencyKind::kPageDuplication);

    gpuAt(to).pageTable().install(page, mem::MappingKind::kLocal, to,
                                  /*writable=*/writable_replicas,
                                  /*read_only_replica=*/!writable_replicas);

    // The first replica write-protects the owner's copy so any write
    // raises a page-protection fault (Section II-B3). GPS-style
    // subscriptions skip this: stores broadcast instead of collapsing.
    if (!writable_replicas && info.replicas().empty() && from >= 0) {
        gpu::Gpu &owner = gpuAt(from);
        sim::Cycle p = fabric_.message(t, sim::kHostId, from, kMessageBytes);
        p += kInvalidatePteCycles;
        if (mem::PteRecord *rec = owner.pageTable().find(page)) {
            if (rec->pte.valid()) {
                rec->pte.setWritable(false);
                rec->setReadOnlyReplica(true);
            }
        }
        owner.invalidatePage(page);  // drop stale writable TLB entries
        t = std::max(t, p);
    }

    directory_.addReplica(page, to, t);
    info.setTouched(true);
    t += kRemapCycles;

    breakdown_.add(stats::LatencyKind::kPageDuplication, t - start);
    duplicationsCtr_.inc();
    timelineRecord(stats::TimelineKind::kDuplication, start);
    if (trace_)
        trace_->record("duplicate", "uvm", start, t - start, to, page,
                       from);
    notifyPlaced(to, page, t);
    return t;
}

sim::Cycle
UvmDriver::prefetchPage(sim::PageId page, sim::GpuId gpu, sim::Cycle now)
{
    PageInfo &info = directory_.info(page);
    if (info.owner() != sim::kHostId)
        return now;  // only host-resident pages are prefetch targets
    // Translations to the host copy go stale once the page moves.
    invalidateRemoteMappings(page, now);
    const sim::Cycle t0 =
        fabric_.transfer(now, sim::kHostId, gpu, geometry_->baseSize);
    const sim::Cycle t = allocateFrame(gpu, page, mem::FrameKind::kOwned,
                                       t0, stats::LatencyKind::kHost);
    // If the requester held a replica, that frame just became the
    // authoritative copy; it must leave the replica list.
    directory_.removeReplica(page, gpu, t);
    info.setOwner(gpu);
    info.setTouched(true);
    // Surviving replicas keep the page write-protected.
    const bool write_protected = !info.replicas().empty();
    gpuAt(gpu).pageTable().install(page, mem::MappingKind::kLocal, gpu,
                                   /*writable=*/!write_protected,
                                   /*read_only_replica=*/write_protected);
    prefetchesCtr_.inc();
    if (trace_)
        trace_->record("prefetch", "uvm", now, t - now, gpu, page);
    // Background transfer: occupies bandwidth, charges no fault latency.
    return t;
}

sim::Cycle
UvmDriver::collapsePage(sim::PageId page, sim::GpuId writer, sim::Cycle now)
{
    PageInfo &info = directory_.info(page);
    const sim::GpuId old_owner = info.owner();
    const sim::Cycle start = now;

    // Defensive: a collapse inside a promoted region (reachable only
    // through unusual policy sequences) must first fall back to base
    // pages, like every other sharing transition.
    now = splinterIfPromoted(page, now, mem::SplinterReason::kWriteSharing);

    // Invalidate every holder except the writer: replica holders and
    // the old owner flush pipelines, caches, and TLBs (Section II-B3).
    sim::Cycle t = now;
    const auto invalidate = [&](sim::GpuId holder) {
        gpu::Gpu &g = gpuAt(holder);
        sim::Cycle h = fabric_.message(now, sim::kHostId, holder,
                                       kMessageBytes);
        h = g.flushForInvalidation(h, drainCost());
        g.pageTable().invalidate(page);
        g.dram().erase(page);
        h = fabric_.message(h, holder, sim::kHostId, kMessageBytes);
        t = std::max(t, h);
    };
    for (sim::GpuId holder : info.replicas()) {
        if (holder != writer)
            invalidate(holder);
    }
    if (old_owner >= 0 && old_owner != writer)
        invalidate(old_owner);

    // Remote translations also referenced the collapsed copy.
    t = std::max(t, invalidateRemoteMappings(page, t));

    const bool writer_had_replica = info.hasReplica(writer);
    directory_.clearReplicas(page, t);

    if (writer_had_replica) {
        gpuAt(writer).dram().setKind(page, mem::FrameKind::kOwned);
        gpuAt(writer).dram().touch(page);
    } else if (old_owner != writer) {
        // The writer has no copy: fetch the authoritative data.
        t = fabric_.transfer(t, old_owner, writer, geometry_->baseSize);
        t = allocateFrame(writer, page, mem::FrameKind::kOwned, t,
                          stats::LatencyKind::kWriteCollapse);
    } else {
        gpuAt(writer).dram().touch(page);
    }

    info.setOwner(writer);
    info.setTouched(true);
    gpuAt(writer).pageTable().install(page, mem::MappingKind::kLocal,
                                      writer, /*writable=*/true);
    t += kRemapCycles;

    breakdown_.add(stats::LatencyKind::kWriteCollapse, t - start);
    collapsesCtr_.inc();
    timelineRecord(stats::TimelineKind::kCollapse, start);
    if (trace_)
        trace_->record("collapse", "uvm", start, t - start, writer, page,
                       old_owner);
    notifyPlaced(writer, page, t);
    return t;
}

unsigned
UvmDriver::injectCapacityPressure(sim::GpuId gpu, unsigned pages,
                                  sim::Cycle now)
{
    gpu::Gpu &g = gpuAt(gpu);
    unsigned evicted = 0;
    for (unsigned i = 0; i < pages; ++i) {
        const std::optional<mem::Eviction> victim = g.dram().evictLru();
        if (!victim.has_value())
            break;
        handleEviction(gpu, *victim, now, stats::LatencyKind::kHost);
        ++evicted;
    }
    if (injector_ != nullptr && evicted > 0)
        injector_->notePressureEvictions(evicted);
    return evicted;
}

sim::Cycle
UvmDriver::resetDuplication(sim::PageId page, sim::Cycle now)
{
    PageInfo &info = directory_.info(page);
    if (info.replicas().empty())
        return now;
    schemeResetCollapsesCtr_.inc();
    return dropReplicas(page, now, stats::LatencyKind::kWriteCollapse);
}

}  // namespace grit::uvm
