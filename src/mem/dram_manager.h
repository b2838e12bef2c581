/**
 * @file
 * Per-GPU DRAM capacity manager modeling memory oversubscription.
 *
 * Table I configures each experiment so that aggregate GPU memory is
 * 70 % of the application footprint; duplication replicas inflate
 * occupancy further. When a GPU exceeds its capacity, the LRU page is
 * evicted: replicas are simply dropped (the owner still has the data),
 * while owned pages spill to host memory and must be re-migrated on the
 * next touch — the "page-duplication" eviction/re-duplication latency of
 * Figure 3.
 */

#ifndef GRIT_MEM_DRAM_MANAGER_H_
#define GRIT_MEM_DRAM_MANAGER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "simcore/flat_map.h"
#include "simcore/page_map.h"
#include "simcore/recency_list.h"
#include "simcore/types.h"

namespace grit::mem {

/** Why a frame is occupied (owned page vs duplication replica). */
enum class FrameKind : std::uint8_t { kOwned, kReplica };

/** An eviction decision returned by DramManager::insert. */
struct Eviction
{
    sim::PageId page;
    FrameKind kind;
};

/** LRU-managed page frames of one GPU's local DRAM. */
class DramManager
{
  public:
    /** @param capacity_pages frame count; 0 means unlimited. */
    explicit DramManager(std::uint64_t capacity_pages);

    /**
     * Allocate a frame for @p page.
     * @return the victim evicted to make room, if any.
     * @pre !resident(page)
     */
    std::optional<Eviction> insert(sim::PageId page, FrameKind kind);

    /** Move @p page to the MRU position. No-op if absent. */
    void touch(sim::PageId page);

    /** Free @p page's frame. @return true if it was resident. */
    bool erase(sim::PageId page);

    /** True when @p page occupies a frame here. */
    bool resident(sim::PageId page) const;

    /** Frame kind of a resident page. @pre resident(page) */
    FrameKind kindOf(sim::PageId page) const;

    /** Convert a resident replica frame to owned or vice versa. */
    void setKind(sim::PageId page, FrameKind kind);

    /**
     * Force-evict the LRU frame regardless of capacity headroom
     * (chaos capacity-pressure storms). Counts as an eviction.
     * @return the evicted frame, or nullopt when DRAM is empty.
     */
    std::optional<Eviction> evictLru();

    // -- region accounting (dynamic huge pages, docs/PAGESIZE.md) -----

    /**
     * Group frames into aligned regions of @p pages_per_region base
     * pages and keep per-region owned-resident counts; <= 1 disables
     * (the default), in which case every query below is inert and the
     * eviction policy is the classic strict LRU, byte-identical to the
     * pre-region behaviour.
     */
    void configureRegions(std::uint64_t pages_per_region);

    /** Owned (non-replica) frames resident in @p region. O(1). */
    std::uint64_t ownedInRegion(sim::PageId region) const;

    /**
     * Pin @p region's frames: victim selection skips them while any
     * unpinned frame exists (promoted huge mappings must not be eaten
     * one page at a time by LRU churn). When every frame is pinned the
     * true LRU is evicted anyway — capacity is a hard limit — and the
     * caller is expected to splinter the region the victim came from.
     */
    void pinRegion(sim::PageId region);
    void unpinRegion(sim::PageId region);
    bool regionPinned(sim::PageId region) const;

    /** Snapshot of every resident frame, for cross-layer audits. */
    std::vector<Eviction> frames() const;

    std::uint64_t size() const { return index_.size(); }
    std::uint64_t capacity() const { return capacity_; }
    std::uint64_t evictions() const { return evictions_; }
    std::uint64_t replicaCount() const { return replicas_; }

  private:
    struct RegionState
    {
        std::uint64_t owned = 0;
        bool pinned = false;
    };

    sim::PageId regionOf(sim::PageId page) const
    {
        return page / pagesPerRegion_;
    }

    /** Adjust the owned count of @p page's region by @p delta. */
    void accountOwned(sim::PageId page, std::int64_t delta);

    /** Free frame slot @p slot and settle its page's accounting. */
    Eviction release(std::uint32_t slot);

    /** Evict the victim: LRU skipping pinned regions, falling back to
     *  the true LRU when everything is pinned. */
    Eviction evictVictim();

    std::uint64_t capacity_;
    /** Frame slots; freed ones are recycled through freeSlots_. */
    std::vector<Eviction> frames_;
    std::vector<std::uint32_t> freeSlots_;
    sim::RecencyList order_;  //!< resident slots, MRU first
    /** Resident page -> its frame slot. */
    sim::PageMap<std::uint32_t> index_;
    std::uint64_t evictions_ = 0;
    std::uint64_t replicas_ = 0;

    std::uint64_t pagesPerRegion_ = 1;  //!< <= 1: regions disabled
    sim::FlatMap<sim::PageId, RegionState> regions_;
};

}  // namespace grit::mem

#endif  // GRIT_MEM_DRAM_MANAGER_H_
