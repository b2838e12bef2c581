/**
 * @file
 * Page-walk cache shared across the GMMU's page-table walkers.
 *
 * Models a 128-entry cache of upper-level page-table entries (Table I).
 * A four-level x86-style radix table maps a 4 KB page with 9 bits per
 * level; the PWC caches the three non-leaf levels so a walk that hits on
 * the deepest cached prefix performs a single leaf access, while a full
 * miss performs four sequential accesses of walkLevelLatency each.
 */

#ifndef GRIT_MEM_PAGE_WALK_CACHE_H_
#define GRIT_MEM_PAGE_WALK_CACHE_H_

#include <cstdint>
#include <vector>

#include "simcore/flat_map.h"
#include "simcore/recency_list.h"
#include "simcore/types.h"

namespace grit::mem {

/**
 * Cache of non-leaf page-table prefixes; fully associative, exact LRU.
 *
 * A key -> slot index answers membership in one probe, and the slots
 * form an intrusive recency list, so a fill costs O(1) per level
 * instead of a scan over every entry.
 */
class PageWalkCache
{
  public:
    /** Total radix levels of the modeled page table. */
    static constexpr unsigned kLevels = 4;

    /** @param entries capacity across all levels. @pre entries > 0 */
    explicit PageWalkCache(unsigned entries);

    /**
     * Memory accesses a walk for @p page needs given current contents:
     * 1 (deepest prefix cached) .. kLevels (nothing cached).
     */
    unsigned walkAccesses(sim::PageId page) const;

    /** Install all prefixes of @p page after a completed walk. */
    void fill(sim::PageId page);

    /** Invalidate every entry (full shootdown). */
    void flushAll();

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    /** Record a walk outcome in the hit/miss stats. */
    void recordWalk(unsigned accesses);

  private:
    /**
     * Prefix key for non-leaf level @p level (1-based from the leaf:
     * level 1 covers 2 MB, level 2 covers 1 GB, level 3 covers 512 GB).
     */
    static std::uint64_t key(sim::PageId page, unsigned level);

    /** Make @p key the MRU entry, evicting the LRU one when full. */
    void touch(std::uint64_t key);

    unsigned capacity_;
    /** Cached keys by slot; grows to capacity_, emptied by flushAll(). */
    std::vector<std::uint64_t> keys_;
    sim::RecencyList order_;                            //!< slot recency
    sim::FlatMap<std::uint64_t, std::uint32_t> index_;  //!< key -> slot
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

}  // namespace grit::mem

#endif  // GRIT_MEM_PAGE_WALK_CACHE_H_
