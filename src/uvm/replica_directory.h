/**
 * @file
 * Authoritative per-page residency directory kept by the UVM driver.
 *
 * For every virtual page the directory records the owner of the
 * up-to-date copy (a GPU, or the host after a capacity spill), the set
 * of read-only duplication replicas, the set of GPUs holding remote
 * translations (which must be shot down when the page moves), and
 * whether the page has ever been touched.
 */

#ifndef GRIT_UVM_REPLICA_DIRECTORY_H_
#define GRIT_UVM_REPLICA_DIRECTORY_H_

#include <cstdint>
#include <vector>

#include "simcore/page_map.h"
#include "simcore/types.h"

namespace grit::sim {
class TraceRecorder;
}  // namespace grit::sim

namespace grit::uvm {

/** Residency record of one virtual page. */
struct PageInfo
{
    /** Processor holding the authoritative copy. */
    sim::GpuId owner = sim::kHostId;
    /** GPUs holding read-only duplication replicas (never the owner). */
    std::vector<sim::GpuId> replicas;
    /** GPUs holding remote translations to the owner's copy. */
    std::vector<sim::GpuId> remoteMappers;
    /** Page has been touched by some GPU at least once. */
    bool touched = false;
    /**
     * Owner's copy diverges from the host copy (written since the last
     * placement). Clean pages evict without a writeback transfer.
     */
    bool dirty = false;

    bool hasReplica(sim::GpuId gpu) const;
    bool hasRemoteMapper(sim::GpuId gpu) const;
    void addReplica(sim::GpuId gpu);
    void removeReplica(sim::GpuId gpu);
    void addRemoteMapper(sim::GpuId gpu);
    void removeRemoteMapper(sim::GpuId gpu);
};

/**
 * Directory over all pages; absent pages are untouched host pages.
 *
 * Replica membership is mutated through the directory-level
 * addReplica()/removeReplica()/clearReplicas() wrappers, which keep an
 * incremental total (totalReplicas() is O(1) and sampled per fault) and
 * double as the trace hooks for "replica_add"/"replica_drop" events.
 */
class ReplicaDirectory
{
  public:
    /** Mutable record, created on first use. */
    PageInfo &info(sim::PageId page) { return pages_[page]; }

    /** Read-only lookup; nullptr when the page was never recorded. */
    const PageInfo *find(sim::PageId page) const;

    /** Owner of @p page (kHostId when unrecorded). */
    sim::GpuId ownerOf(sim::PageId page) const;

    /** True when some GPU has touched @p page. */
    bool touched(sim::PageId page) const;

    /** Grant @p gpu a read-only replica of @p page (idempotent). */
    void addReplica(sim::PageId page, sim::GpuId gpu, sim::Cycle now);

    /** Revoke @p gpu's replica of @p page, if any. */
    void removeReplica(sim::PageId page, sim::GpuId gpu, sim::Cycle now);

    /** Revoke every replica of @p page (write collapse, migration). */
    void clearReplicas(sim::PageId page, sim::Cycle now);

    /** Total replicas alive across all pages (oversubscription metric). */
    std::uint64_t totalReplicas() const { return totalReplicas_; }

    /** Timeline sink for replica grant/revoke events; nullptr disables. */
    void setTrace(sim::TraceRecorder *trace) { trace_ = trace; }

    std::size_t size() const { return pages_.size(); }

    /** Page-record storage: page-indexed dense leaves. */
    using PageRecords = sim::PageMap<PageInfo>;

    /**
     * All page records, for cross-layer audits (read-only). Iteration
     * order is deterministic (a pure function of the operation
     * sequence), so audit findings are reproducible run-to-run.
     */
    const PageRecords &pages() const { return pages_; }

  private:
    PageRecords pages_;
    std::uint64_t totalReplicas_ = 0;
    sim::TraceRecorder *trace_ = nullptr;
};

}  // namespace grit::uvm

#endif  // GRIT_UVM_REPLICA_DIRECTORY_H_
