#include "uvm/uvm_driver.h"

#include <algorithm>
#include <cassert>

#include "simcore/fault_injector.h"
#include "simcore/trace_recorder.h"
#include "stats/interval_sampler.h"

namespace grit::uvm {

namespace {

/** Latency category a cold (first-touch) placement is charged to. */
stats::LatencyKind
coldKind(policy::FaultAction action)
{
    switch (action) {
      case policy::FaultAction::kDuplicate:
      case policy::FaultAction::kSubscribe:
        return stats::LatencyKind::kPageDuplication;
      case policy::FaultAction::kIdealLocal:
        return stats::LatencyKind::kHost;
      case policy::FaultAction::kMigrate:
      case policy::FaultAction::kMapRemote:
        return stats::LatencyKind::kPageMigration;
    }
    return stats::LatencyKind::kPageMigration;
}

}  // namespace

UvmDriver::UvmDriver(const UvmConfig &config, ic::Topology &fabric,
                     std::vector<gpu::Gpu *> gpus, stats::StatSet &stats,
                     stats::LatencyBreakdown &breakdown,
                     const mem::PageGeometry &geometry)
    : config_(config),
      fabric_(fabric),
      gpus_(std::move(gpus)),
      stats_(stats),
      breakdown_(breakdown),
      geometry_(&geometry),
      regions_(geometry),
      servers_("uvm.servers", kServers),
      hostMem_("uvm.hostmem", kHostMemGBs)
{
    assert(!gpus_.empty());
}

void
UvmDriver::setTrace(sim::TraceRecorder *trace)
{
    trace_ = trace;
    directory_.setTrace(trace);
}

void
UvmDriver::timelineRecord(stats::TimelineKind kind, sim::Cycle now)
{
    if (timeline_ != nullptr)
        timeline_->record(now, static_cast<unsigned>(kind));
}

gpu::Gpu &
UvmDriver::gpuAt(sim::GpuId id)
{
    assert(id >= 0 && static_cast<std::size_t>(id) < gpus_.size());
    return *gpus_[static_cast<std::size_t>(id)];
}

std::uint64_t
UvmDriver::totalFaults() const
{
    return stats_.get("uvm.local_faults") +
           stats_.get("uvm.protection_faults");
}

sim::Cycle
UvmDriver::hostMemAccess(sim::Cycle now, std::uint64_t bytes)
{
    return hostMem_.acquire(now, bytes) + kHostMemAccessCycles;
}

FaultOutcome
UvmDriver::handleFault(sim::GpuId gpu, sim::PageId page, bool write,
                       bool protection_fault, sim::Cycle now)
{
    assert(policy_ != nullptr && "no placement policy selected");

    // Faults for a page already being serviced for this GPU coalesce
    // onto the in-flight episode, as the GMMU fault queues do.
    const sim::Cycle pending = coalescer_.inflight(gpu, page, now);
    if (pending != sim::kCycleMax) {
        coalescedFaultsCtr_.inc();
        return FaultOutcome{pending, true};
    }

    (protection_fault ? protectionFaultsCtr_ : localFaultsCtr_).inc();
    timelineRecord(stats::TimelineKind::kFault, now);

    PageInfo &info = directory_.info(page);
    const bool cold = !info.touched;

    policy::FaultInfo fi;
    fi.gpu = gpu;
    fi.page = page;
    fi.write = write;
    fi.protectionFault = protection_fault;
    fi.coldTouch = cold;
    fi.owner = info.owner;
    fi.replicaCount = static_cast<unsigned>(info.replicas.size());

    const auto [action, overhead] = policy_->onFault(fi, now);

    // Trans-FW short-circuit: a non-cold read fault resolving to a
    // remote mapping fetches the translation from the owning GPU over
    // NVLink instead of round-tripping through the host driver.
    if (config_.transFw && !cold && !protection_fault &&
        action == policy::FaultAction::kMapRemote && info.owner >= 0 &&
        info.owner != gpu) {
        sim::Cycle at = fabric_.message(now, gpu, info.owner, kMessageBytes);
        at += kTransFwCycles + overhead;
        at = fabric_.message(at, info.owner, gpu, kMessageBytes);
        const sim::Cycle done = mapRemote(page, gpu, at);
        breakdown_.add(stats::LatencyKind::kHost, done - now);
        transfwForwardsCtr_.inc();
        if (trace_)
            trace_->record("fault", "uvm", now, done - now, gpu, page);
        coalescer_.record(gpu, page, done);
        return FaultOutcome{done, false};
    }

    // Fault descriptor to the host, driver software servicing (plus any
    // policy machinery such as GRIT's PA-Table lookup).
    sim::Cycle at = fabric_.message(now, gpu, sim::kHostId, kMessageBytes);
    // A write that must invalidate live copies elsewhere (replicas, or
    // an owner losing the page) is a true write collapse and costs the
    // driver the full invalidate-everyone coordination; a write fault
    // on a spilled page with no other holders is just a placement.
    sim::Cycle service = kServiceCycles + overhead;
    // Chaos: a perturbation window may inflate driver servicing time.
    if (injector_ != nullptr) {
        const sim::Cycle chaos_extra = injector_->extraServiceCycles(at);
        if (chaos_extra > 0) {
            service += chaos_extra;
            injector_->noteServiceDelay();
        }
    }
    const bool other_holders =
        fi.replicaCount > 0 || (info.owner >= 0 && info.owner != gpu);
    const bool collapses =
        protection_fault ||
        (!cold && write && action == policy::FaultAction::kDuplicate &&
         other_holders);
    if (collapses)
        service += kCollapseServiceCycles;
    at = servers_.acquire(at, service);
    breakdown_.add(stats::LatencyKind::kHost, at - now);

    sim::Cycle done = at;
    if (protection_fault) {
        done = collapsePage(page, gpu, at);
    } else if (cold) {
        // First touch anywhere: the page comes from host memory under
        // every scheme; only the charged category differs.
        coldMigrationsCtr_.inc();
        done = migratePage(page, gpu, at, coldKind(action));
    } else {
        switch (action) {
          case policy::FaultAction::kMigrate:
            done = migratePage(page, gpu, at,
                               stats::LatencyKind::kPageMigration);
            break;
          case policy::FaultAction::kMapRemote:
            if (info.owner == gpu)
                done = refillMapping(page, gpu, at);
            else
                done = mapRemote(page, gpu, at);
            break;
          case policy::FaultAction::kDuplicate:
            if (write)
                done = collapsePage(page, gpu, at);
            else if (info.owner == gpu || info.hasReplica(gpu))
                done = refillMapping(page, gpu, at);
            else
                done = duplicatePage(page, gpu, at);
            break;
          case policy::FaultAction::kSubscribe:
            if (info.owner == gpu || info.hasReplica(gpu)) {
                // GPS replicas stay writable; just repair the mapping.
                gpuAt(gpu).pageTable().install(
                    page, mem::MappingKind::kLocal, gpu,
                    /*writable=*/true);
                gpuAt(gpu).dram().touch(page);
                refillsCtr_.inc();
                done = at + kRemapCycles;
            } else {
                done = duplicatePage(page, gpu, at,
                                     /*writable_replicas=*/true);
            }
            break;
          case policy::FaultAction::kIdealLocal:
            gpuAt(gpu).pageTable().install(page, mem::MappingKind::kLocal,
                                           gpu, /*writable=*/true);
            done = at;
            break;
        }
    }

    // The replayed write will dirty the page as soon as it retires.
    if (write)
        info.dirty = true;

    // Dynamic huge pages: count the region's fault heat and promote it
    // once hot and fully, exclusively resident here. One branch when
    // the feature is off.
    if (regions_.enabled())
        done = maybePromote(gpu, page, done);

    // Fault replay notification back to the GPU.
    done = fabric_.message(done, sim::kHostId, gpu, kMessageBytes);
    if (trace_)
        trace_->record("fault", "uvm", now, done - now, gpu, page);
    coalescer_.record(gpu, page, done);
    return FaultOutcome{done, false};
}

sim::Cycle
UvmDriver::mapRemote(sim::PageId page, sim::GpuId gpu, sim::Cycle now)
{
    // A remote translation into a promoted region ends its exclusive
    // residency: splinter the owner's huge mapping first so base-page
    // sharing machinery operates on base PTEs again.
    now = splinterIfPromoted(page, now, mem::SplinterReason::kWriteSharing);
    PageInfo &info = directory_.info(page);
    // Precondition: the mapper holds no local copy — a remote PTE would
    // shadow the frame and strand the directory's mapper entry when the
    // frame is later evicted.
    assert(info.owner != gpu && !info.hasReplica(gpu));
    gpuAt(gpu).pageTable().install(page, mem::MappingKind::kRemote,
                                   info.owner, /*writable=*/true);
    info.addRemoteMapper(gpu);
    remoteMapsCtr_.inc();
    return now + kRemapCycles;
}

sim::Cycle
UvmDriver::refillMapping(sim::PageId page, sim::GpuId gpu, sim::Cycle now)
{
    PageInfo &info = directory_.info(page);
    const bool replica = info.hasReplica(gpu);
    const bool write_protected =
        replica || (info.owner == gpu && !info.replicas.empty());
    gpuAt(gpu).pageTable().install(page, mem::MappingKind::kLocal, gpu,
                                   /*writable=*/!write_protected,
                                   /*read_only_replica=*/write_protected);
    gpuAt(gpu).dram().touch(page);
    refillsCtr_.inc();
    return now + kRemapCycles;
}

sim::Cycle
UvmDriver::counterMigration(sim::GpuId gpu, sim::PageId page,
                            sim::Cycle now)
{
    const unsigned group_pages = gpuAt(gpu).counters().pagesPerGroup();
    const sim::PageId base = mem::groupBase(page, group_pages);

    sim::Cycle done = now;
    unsigned migrated = 0;
    for (unsigned i = 0; i < group_pages; ++i) {
        const sim::PageId p = base + i;
        const PageInfo *info = directory_.find(p);
        if (info == nullptr || !info->touched || info->owner == gpu)
            continue;
        if (policy_ != nullptr && !policy_->countsRemote(p))
            continue;
        done = std::max(done,
                        migratePage(p, gpu, now,
                                    stats::LatencyKind::kPageMigration));
        ++migrated;
    }
    counterMigrationsCtr_.inc(migrated);
    return done;
}

sim::Cycle
UvmDriver::maybePromote(sim::GpuId gpu, sim::PageId page, sim::Cycle now)
{
    if (!regions_.enabled())
        return now;
    const sim::PageId region = regions_.regionOf(page);
    const unsigned heat = regions_.noteRegionFault(gpu, region);
    if (regions_.promoted(region) ||
        heat < geometry_->promoteFaultThreshold)
        return now;

    gpu::Gpu &g = gpuAt(gpu);
    const std::uint64_t pages = regions_.pagesPerRegion();
    // Cheap gate first: the region must be fully owned-resident here
    // (O(1) via the DRAM manager's per-region accounting).
    if (g.dram().ownedInRegion(region) != pages)
        return now;
    // Full walk confirming exclusive writable residency of every base
    // page: owned here, no replicas, no remote translations elsewhere,
    // and a valid writable local PTE to fold into the huge mapping.
    const sim::PageId first = geometry_->regionFirstPage(region);
    for (std::uint64_t i = 0; i < pages; ++i) {
        const sim::PageId p = first + i;
        const PageInfo *info = directory_.find(p);
        if (info == nullptr || !info->touched || info->owner != gpu ||
            !info->replicas.empty() || !info->remoteMappers.empty())
            return now;
        const mem::PteRecord *rec = g.pageTable().find(p);
        if (rec == nullptr || !rec->pte.valid() ||
            rec->kind != mem::MappingKind::kLocal ||
            !rec->pte.writable() || rec->readOnlyReplica)
            return now;
    }

    g.promoteRegion(region);
    g.dram().pinRegion(region);
    regions_.markPromoted(region, gpu);
    timelineRecord(stats::TimelineKind::kMigration, now);
    if (trace_)
        trace_->record("promote", "uvm", now, kPromoteCycles, gpu,
                       geometry_->regionFirstPage(region));

    // PTE rewrite plus the shootdown notification to the GPU.
    sim::Cycle at = fabric_.message(now, sim::kHostId, gpu, kMessageBytes);
    at += kPromoteCycles;
    breakdown_.add(stats::LatencyKind::kHost, at - now);
    return at;
}

sim::Cycle
UvmDriver::splinterRegion(sim::PageId region, sim::Cycle now,
                          mem::SplinterReason reason)
{
    if (!regions_.enabled() || !regions_.promoted(region))
        return now;
    const sim::GpuId holder = regions_.holder(region);
    assert(holder != sim::kNoGpu);
    gpu::Gpu &g = gpuAt(holder);
    g.splinterRegion(region);
    g.dram().unpinRegion(region);
    regions_.markSplintered(region, reason);
    if (trace_)
        trace_->record("splinter", "uvm", now, kSplinterCycles,
                       holder, geometry_->regionFirstPage(region));

    // Huge-PTE shootdown at the holder plus driver rewrite work; the
    // base PTEs underneath are still valid, so no data moves.
    sim::Cycle at = fabric_.message(now, sim::kHostId, holder, kMessageBytes);
    at += kSplinterCycles;
    breakdown_.add(stats::LatencyKind::kHost, at - now);
    return at;
}

sim::Cycle
UvmDriver::splinterIfPromoted(sim::PageId page, sim::Cycle now,
                              mem::SplinterReason reason)
{
    if (!regions_.enabled())
        return now;
    return splinterRegion(regions_.regionOf(page), now, reason);
}

unsigned
UvmDriver::splinterAllPromoted(sim::Cycle now)
{
    if (!regions_.enabled() || regions_.promotedCount() == 0)
        return 0;
    // Copy the keys first: splinterRegion mutates the promoted map.
    std::vector<sim::PageId> promoted;
    promoted.reserve(regions_.promotedCount());
    for (const auto &entry : regions_.promotedRegions())
        promoted.push_back(entry.first);
    for (sim::PageId region : promoted)
        splinterRegion(region, now, mem::SplinterReason::kChaos);
    return static_cast<unsigned>(promoted.size());
}

}  // namespace grit::uvm
