#include "harness/invariant_auditor.h"

#include <algorithm>
#include <bit>
#include <sstream>
#include <string>

#include "gpu/gpu.h"
#include "mem/dram_manager.h"
#include "mem/page_table.h"
#include "mem/tlb.h"
#include "uvm/replica_directory.h"
#include "uvm/uvm_driver.h"

namespace grit::sim {

namespace {

SimError
violation(const std::string &what, const std::string &where)
{
    return SimError(ErrorCode::kInvariant, what, where);
}

std::string
pageStr(PageId page)
{
    std::ostringstream out;
    out << "page " << page;
    return out.str();
}

/** A TLB key: a base page, or a promoted region's huge key. */
std::string
keyStr(PageId key)
{
    if (mem::isHugeKey(key))
        return "region " + std::to_string(mem::hugeKeyRegion(key)) +
               " (huge)";
    return pageStr(key);
}

}  // namespace

std::vector<SimError>
InvariantAuditor::audit()
{
    std::vector<SimError> out;
    auditDirectory(out);
    auditPageTables(out);
    auditDramAccounting(out);
    auditTlbCoherence(out);
    auditRegions(out);
    ++audits_;
    violations_ += out.size();
    return out;
}

void
InvariantAuditor::auditDirectory(std::vector<SimError> &out) const
{
    const uvm::ReplicaDirectory &dir = driver_.directory();
    std::uint64_t replica_sum = 0;

    for (const auto &[page, info] : dir.pages()) {
        const std::string where = pageStr(page);
        const uvm::PageInfo::GpuList replicas = info.replicas();
        const GpuId owner = info.owner();
        replica_sum += replicas.size();

        // The authoritative owner's copy must occupy an owned frame.
        if (owner >= 0) {
            const mem::DramManager &dram = driver_.gpuAt(owner).dram();
            if (!dram.resident(page)) {
                out.push_back(violation(
                    "directory owner gpu" + std::to_string(owner) +
                        " has no resident frame",
                    where));
            } else if (dram.kindOf(page) != mem::FrameKind::kOwned) {
                out.push_back(violation(
                    "owner frame at gpu" + std::to_string(owner) +
                        " is marked replica",
                    where));
            }
        }

        // Every replica holder must back the replica with a frame.
        for (sim::GpuId r : replicas) {
            if (r == owner) {
                out.push_back(violation("owner gpu" + std::to_string(r) +
                                            " appears in its own replica "
                                            "list",
                                        where));
                continue;
            }
            if (std::count(replicas.begin(), replicas.end(), r) > 1) {
                out.push_back(violation(
                    "gpu" + std::to_string(r) + " listed twice as replica",
                    where));
            }
            const mem::DramManager &dram = driver_.gpuAt(r).dram();
            if (!dram.resident(page)) {
                out.push_back(violation(
                    "replica holder gpu" + std::to_string(r) +
                        " has no resident frame",
                    where));
            } else if (dram.kindOf(page) != mem::FrameKind::kReplica) {
                out.push_back(violation(
                    "replica frame at gpu" + std::to_string(r) +
                        " is marked owned",
                    where));
            }
        }

        // Remote mappers must hold a live remote PTE at the owner.
        for (sim::GpuId m : info.remoteMappers()) {
            const mem::PteRecord *rec =
                driver_.gpuAt(m).pageTable().find(page);
            if (rec == nullptr || !rec->pte.valid() ||
                rec->kind() != mem::MappingKind::kRemote) {
                out.push_back(violation(
                    "remote mapper gpu" + std::to_string(m) +
                        " holds no valid remote PTE",
                    where));
            } else if (rec->location() != owner) {
                out.push_back(violation(
                    "remote PTE at gpu" + std::to_string(m) +
                        " points at " + std::to_string(rec->location()) +
                        " but the owner is " + std::to_string(owner),
                    where));
            }
        }
    }

    if (replica_sum != dir.totalReplicas()) {
        out.push_back(violation(
            "directory totalReplicas() is " +
                std::to_string(dir.totalReplicas()) +
                " but per-page lists sum to " +
                std::to_string(replica_sum),
            "replica-directory"));
    }
}

void
InvariantAuditor::auditPageTables(std::vector<SimError> &out) const
{
    const uvm::ReplicaDirectory &dir = driver_.directory();

    for (unsigned g = 0; g < driver_.numGpus(); ++g) {
        const gpu::Gpu &gpu = driver_.gpuAt(static_cast<GpuId>(g));
        const std::string who = "gpu" + std::to_string(g);
        for (const auto &[page, rec] : gpu.pageTable().entries()) {
            if (!rec.pte.valid())
                continue;  // annotation-only entry (scheme/group bits)
            const std::string where = who + " " + pageStr(page);
            const uvm::PageInfo *info = dir.find(page);

            if (rec.kind() == mem::MappingKind::kLocal) {
                if (ideal_)
                    continue;
                if (!gpu.dram().resident(page)) {
                    out.push_back(violation(
                        "valid local PTE but the page is not resident",
                        where));
                } else if (info == nullptr ||
                           (info->owner() != static_cast<GpuId>(g) &&
                            !info->hasReplica(static_cast<GpuId>(g)))) {
                    out.push_back(violation(
                        "valid local PTE but the directory lists this "
                        "GPU as neither owner nor replica holder",
                        where));
                }
            } else {  // kRemote
                if (rec.location() == static_cast<GpuId>(g)) {
                    out.push_back(violation(
                        "remote PTE points at its own GPU", where));
                    continue;
                }
                if (info == nullptr ||
                    !info->hasRemoteMapper(static_cast<GpuId>(g))) {
                    out.push_back(violation(
                        "valid remote PTE but the directory does not "
                        "list this GPU as a remote mapper",
                        where));
                } else if (rec.location() != info->owner()) {
                    out.push_back(violation(
                        "remote PTE location " +
                            std::to_string(rec.location()) +
                            " disagrees with directory owner " +
                            std::to_string(info->owner()),
                        where));
                }
            }
        }
    }
}

void
InvariantAuditor::auditDramAccounting(std::vector<SimError> &out) const
{
    const uvm::ReplicaDirectory &dir = driver_.directory();

    for (unsigned g = 0; g < driver_.numGpus(); ++g) {
        const GpuId id = static_cast<GpuId>(g);
        const mem::DramManager &dram = driver_.gpuAt(id).dram();
        const std::string who = "gpu" + std::to_string(g);

        if (dram.capacity() != 0 && dram.size() > dram.capacity()) {
            out.push_back(violation(
                "DRAM holds " + std::to_string(dram.size()) +
                    " pages but capacity is " +
                    std::to_string(dram.capacity()),
                who));
        }

        std::uint64_t replica_frames = 0;
        for (const mem::Eviction &frame : dram.frames()) {
            const std::string where = who + " " + pageStr(frame.page);
            const uvm::PageInfo *info = dir.find(frame.page);
            if (info == nullptr) {
                out.push_back(violation(
                    "resident frame for a page the directory never "
                    "recorded",
                    where));
                continue;
            }
            if (frame.kind == mem::FrameKind::kOwned) {
                if (info->owner() != id) {
                    out.push_back(violation(
                        "owned frame but the directory owner is " +
                            std::to_string(info->owner()),
                        where));
                }
            } else {
                ++replica_frames;
                if (!info->hasReplica(id)) {
                    out.push_back(violation(
                        "replica frame but the directory lists no "
                        "replica here",
                        where));
                }
            }
        }

        if (replica_frames != dram.replicaCount()) {
            out.push_back(violation(
                "DRAM replicaCount() is " +
                    std::to_string(dram.replicaCount()) + " but " +
                    std::to_string(replica_frames) +
                    " replica frames are resident",
                who));
        }
    }
}

void
InvariantAuditor::auditTlbCoherence(std::vector<SimError> &out) const
{
    for (unsigned g = 0; g < driver_.numGpus(); ++g) {
        const gpu::Gpu &gpu = driver_.gpuAt(static_cast<GpuId>(g));
        const std::string who = "gpu" + std::to_string(g);
        auto check = [&](const mem::Tlb &tlb,
                         const std::vector<PageId> &live) {
            for (PageId page : live) {
                // Huge-key entries translate via the promoted-region
                // overlay, not a per-page PTE: the region must still be
                // promoted on this GPU.
                if (mem::isHugeKey(page)) {
                    if (!gpu.hugeMapped(mem::hugeKeyRegion(page))) {
                        out.push_back(violation(
                            "live " + tlb.name() +
                                " huge entry survived the splinter",
                            who + " region " +
                                std::to_string(mem::hugeKeyRegion(page))));
                    }
                    continue;
                }
                if (!gpu.pageTable().translates(page)) {
                    out.push_back(violation(
                        "live " + tlb.name() +
                            " entry survived the PTE shootdown",
                        who + " " + pageStr(page)));
                }
            }
        };
        check(gpu.l2Tlb(), gpu.l2Tlb().livePages());

        // The L1 shootdown filter may skip a lane only if that lane
        // holds nothing to shoot down: every live L1 entry must carry
        // its lane's bit. With one bit per lane the filter is exact as
        // well: every set bit names a lane whose L1 holds the key.
        const auto &holders = gpu.l1Holders();
        const std::vector<mem::Tlb> &l1s = gpu.l1Tlbs();
        for (std::size_t lane = 0; lane < l1s.size(); ++lane) {
            const std::vector<PageId> live = l1s[lane].livePages();
            check(l1s[lane], live);
            const std::uint64_t bit = std::uint64_t{1} << (lane & 63);
            for (PageId key : live) {
                const std::uint64_t *mask = holders.find(key);
                if (mask == nullptr || (*mask & bit) == 0) {
                    out.push_back(violation(
                        "live " + l1s[lane].name() +
                            " entry is missing from the shootdown filter",
                        who + " " + keyStr(key)));
                }
            }
        }
        if (!gpu.exactHolders())
            continue;
        for (const auto &[key, mask] : holders) {
            for (std::uint64_t bits = mask; bits != 0; bits &= bits - 1) {
                const auto lane =
                    static_cast<std::size_t>(std::countr_zero(bits));
                if (lane >= l1s.size() || !l1s[lane].holds(key)) {
                    out.push_back(violation(
                        "shootdown filter names lane " +
                            std::to_string(lane) +
                            ", whose L1 TLB does not hold the key",
                        who + " " + keyStr(key)));
                }
            }
        }
    }
}

void
InvariantAuditor::auditRegions(std::vector<SimError> &out) const
{
    const mem::RegionTracker &regions = driver_.regionTracker();
    if (!regions.enabled())
        return;
    const uvm::ReplicaDirectory &dir = driver_.directory();
    const std::uint64_t pages_per_region = regions.pagesPerRegion();

    for (const auto &[region, holder] : regions.promotedRegions()) {
        const std::string where = "region " + std::to_string(region);
        if (holder < 0 ||
            static_cast<unsigned>(holder) >= driver_.numGpus()) {
            out.push_back(violation(
                "promoted region held by invalid gpu" +
                    std::to_string(holder),
                where));
            continue;
        }
        const gpu::Gpu &gpu = driver_.gpuAt(holder);
        const std::string who = "gpu" + std::to_string(holder);
        if (!gpu.hugeMapped(region)) {
            out.push_back(violation(
                "tracker says promoted but " + who +
                    " has no huge mapping",
                where));
        }
        if (!gpu.dram().regionPinned(region)) {
            out.push_back(violation(
                "promoted region's frames are not pinned at " + who,
                where));
        }
        if (gpu.dram().ownedInRegion(region) != pages_per_region) {
            out.push_back(violation(
                "promoted region owns " +
                    std::to_string(gpu.dram().ownedInRegion(region)) +
                    " of " + std::to_string(pages_per_region) +
                    " resident frames at " + who,
                where));
        }
        // Every base page: exclusively owned here, resident, and backed
        // by a valid writable local PTE (the state a splinter restores).
        const PageId first = driver_.geometry().regionFirstPage(region);
        for (std::uint64_t i = 0; i < pages_per_region; ++i) {
            const PageId page = first + i;
            const std::string pwhere = where + " " + pageStr(page);
            const uvm::PageInfo *info = dir.find(page);
            if (info == nullptr || !info->touched() ||
                info->owner() != holder) {
                out.push_back(violation(
                    "promoted region page is not owned by " + who,
                    pwhere));
                continue;
            }
            if (!info->replicas().empty() ||
                !info->remoteMappers().empty()) {
                out.push_back(violation(
                    "promoted region page is shared (replicas or remote "
                    "mappers exist)",
                    pwhere));
            }
            const mem::PteRecord *rec = gpu.pageTable().find(page);
            if (rec == nullptr || !rec->pte.valid() ||
                rec->kind() != mem::MappingKind::kLocal ||
                !rec->pte.writable() || rec->readOnlyReplica()) {
                out.push_back(violation(
                    "promoted region page lacks a valid writable local "
                    "PTE underneath the huge mapping",
                    pwhere));
            }
        }
    }

    // The three layers' promoted sets must reconcile exactly:
    // promotions - splinters == live tracker regions == sum of the
    // per-GPU huge-mapping sets (each of which is a tracker subset).
    std::uint64_t gpu_mappings = 0;
    for (unsigned g = 0; g < driver_.numGpus(); ++g) {
        const gpu::Gpu &gpu = driver_.gpuAt(static_cast<GpuId>(g));
        gpu_mappings += gpu.hugeMappingCount();
        for (const auto &[region, mark] : gpu.hugeRegions()) {
            (void)mark;
            if (regions.holder(region) != static_cast<GpuId>(g)) {
                out.push_back(violation(
                    "gpu" + std::to_string(g) +
                        " maps a huge region the tracker does not "
                        "attribute to it",
                    "region " + std::to_string(region)));
            }
        }
    }
    if (regions.promotions() - regions.splinters() !=
            regions.promotedCount() ||
        gpu_mappings != regions.promotedCount()) {
        out.push_back(violation(
            "promotion ledger out of balance: promotions " +
                std::to_string(regions.promotions()) + " - splinters " +
                std::to_string(regions.splinters()) + " vs tracker " +
                std::to_string(regions.promotedCount()) +
                " vs GPU mappings " + std::to_string(gpu_mappings),
            "region-tracker"));
    }
}

}  // namespace grit::sim
