/**
 * @file
 * Hardware remote-access counters (paper Section II-B2).
 *
 * NVIDIA Volta-class GPUs count remote accesses at a 64 KB page-group
 * granularity; when a group's counter reaches a static threshold (256 in
 * Table I) the GPU requests migration of the group from the UVM driver.
 * One AccessCounterTable instance lives in each GPU.
 */

#ifndef GRIT_MEM_ACCESS_COUNTER_H_
#define GRIT_MEM_ACCESS_COUNTER_H_

#include <cstdint>
#include <unordered_map>

#include "simcore/types.h"

namespace grit::mem {

/** Per-GPU table of remote-access counters over 64 KB page groups. */
class AccessCounterTable
{
  public:
    /**
     * @param pages_per_group pages per counter group (16 for 4 KB pages;
     *                        clamped to 1 for 2 MB pages). @pre > 0
     * @param threshold       migration trigger count. @pre > 0
     */
    AccessCounterTable(unsigned pages_per_group, unsigned threshold);

    /** Counter group containing @p page. */
    std::uint64_t
    groupOf(sim::PageId page) const
    {
        return page / pagesPerGroup_;
    }

    /** First page of counter group @p group. */
    sim::PageId
    groupFirstPage(std::uint64_t group) const
    {
        return group * pagesPerGroup_;
    }

    unsigned pagesPerGroup() const { return pagesPerGroup_; }
    unsigned threshold() const { return threshold_; }

    /**
     * Record a remote access to @p page.
     * @return true when the group's counter just reached the threshold
     *         (the counter resets; the caller issues the migration).
     */
    bool recordRemoteAccess(sim::PageId page);

    /** Current count for the group containing @p page. */
    unsigned count(sim::PageId page) const;

    /** Clear the counter for the group containing @p page. */
    void clear(sim::PageId page);

    /** Migration triggers fired so far. */
    std::uint64_t triggers() const { return triggers_; }

  private:
    unsigned pagesPerGroup_;
    unsigned threshold_;
    std::unordered_map<std::uint64_t, unsigned> counts_;
    std::uint64_t triggers_ = 0;
};

}  // namespace grit::mem

#endif  // GRIT_MEM_ACCESS_COUNTER_H_
