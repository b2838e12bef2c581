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
#include <span>

#include "simcore/page_map.h"
#include "simcore/types.h"

namespace grit::sim {
class TraceRecorder;
}  // namespace grit::sim

namespace grit::uvm {

/**
 * Residency record of one virtual page, in 16 bytes.
 *
 * GPU ids are int8_t. The replica holders and then the remote mappers
 * share one id list, each part in insertion order: 12 inline slots,
 * or, from the 13th sharer on, one heap block of 2 x kMaxGpus ids
 * whose address the slots hold. Replicas and mappers never overlap,
 * so a page has at most one sharer per GPU and only runs of 13 or
 * more GPUs spill.
 */
class PageInfo
{
  public:
    /** GPU ids a record holds: 0 to kMaxGpus - 1. */
    static constexpr unsigned kMaxGpus = 64;

    /** Read-only id list; any mutation of the record invalidates it. */
    using GpuList = std::span<const std::int8_t>;

    PageInfo() = default;
    PageInfo(PageInfo &&other) noexcept;
    PageInfo &operator=(PageInfo &&other) noexcept;
    ~PageInfo() { release(); }

    /** Processor holding the authoritative copy. */
    sim::GpuId owner() const { return owner_; }
    void setOwner(sim::GpuId gpu) { owner_ = static_cast<std::int8_t>(gpu); }

    /** Page has been touched by some GPU at least once. */
    bool touched() const { return flags_ & kTouched; }
    void setTouched(bool v) { setFlag(kTouched, v); }

    /**
     * Owner's copy diverges from the host copy (written since the last
     * placement). Clean pages evict without a writeback transfer.
     */
    bool dirty() const { return flags_ & kDirty; }
    void setDirty(bool v) { setFlag(kDirty, v); }

    /** GPUs holding read-only duplication replicas (never the owner). */
    GpuList replicas() const { return {ids(), replicaCount_}; }
    /** GPUs holding remote translations to the owner's copy. */
    GpuList
    remoteMappers() const
    {
        return {ids() + replicaCount_, mapperCount_};
    }

    bool hasReplica(sim::GpuId gpu) const;
    bool hasRemoteMapper(sim::GpuId gpu) const;
    void addReplica(sim::GpuId gpu);
    /** Append without addReplica()'s duplicate check (audit tests). */
    void appendReplica(sim::GpuId gpu);
    void removeReplica(sim::GpuId gpu);
    void addRemoteMapper(sim::GpuId gpu);
    void removeRemoteMapper(sim::GpuId gpu);
    void clearReplicas();
    void clearRemoteMappers() { mapperCount_ = 0; }

  private:
    static constexpr unsigned kInlineIds = 12;
    static constexpr std::uint8_t kTouched = 1;
    static constexpr std::uint8_t kDirty = 2;
    static constexpr std::uint8_t kSpilled = 4;

    void
    setFlag(std::uint8_t flag, bool v)
    {
        flags_ = v ? (flags_ | flag) : (flags_ & ~flag);
    }

    /** The inline slots, or the spill block. */
    std::int8_t *ids() const;
    void insertAt(unsigned pos, sim::GpuId gpu);
    /** Erase every @p gpu in ids [first, first + count); @return how many. */
    unsigned eraseAll(unsigned first, unsigned count, sim::GpuId gpu);
    void release();

    std::int8_t owner_ = sim::kHostId;
    std::uint8_t flags_ = 0;
    std::uint8_t replicaCount_ = 0;
    std::uint8_t mapperCount_ = 0;
    /** Inline ids, or the spill block's address when kSpilled is set. */
    std::int8_t slots_[kInlineIds] = {};
};

static_assert(sizeof(PageInfo) == 16, "a residency record is 16 bytes");

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
