/**
 * @file
 * Set-associative data cache model (the per-GPU L2 in Table I).
 *
 * The simulator tracks data locality at cache-line granularity: an L2
 * hit avoids the DRAM / remote-fabric access entirely. Whole-cache
 * flushes — issued during migrations and write collapses — are O(1) via
 * a generation counter; per-page invalidations scan only the sets the
 * page's lines map to.
 *
 * Storage is structure-of-arrays: a page's lines land in consecutive
 * sets, so invalidatePage() reduces to a membership test over one or
 * two contiguous spans of the line-id array — a vectorizable sweep
 * instead of a per-line, per-way pointer chase over padded structs.
 * Each set keeps a live-way bit mask (mem/live_ways.h), so a fill finds
 * its free way with one bit scan, and a full set picks its LRU victim
 * with one branch-free pass over the stamps.
 */

#ifndef GRIT_MEM_DATA_CACHE_H_
#define GRIT_MEM_DATA_CACHE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "mem/live_ways.h"
#include "simcore/types.h"

namespace grit::mem {

/** A physically indexed set-associative cache of line ids. */
class DataCache
{
  public:
    /**
     * @param name       diagnostic name.
     * @param size_bytes total capacity.
     * @param ways       associativity.
     * @param line_bytes line size.
     * @param latency    hit latency in cycles.
     */
    DataCache(std::string name, std::uint64_t size_bytes, unsigned ways,
              std::uint64_t line_bytes, sim::Cycle latency);

    /**
     * Access line @p line_id (a global line number); fills on miss.
     * @return true on hit.
     */
    bool access(std::uint64_t line_id);

    /** Probe without fill or LRU update (test use). */
    bool contains(std::uint64_t line_id) const;

    /** Invalidate all lines of @p page given @p lines_per_page. */
    void invalidatePage(sim::PageId page, unsigned lines_per_page);

    /** Invalidate everything; O(1). */
    void flushAll();

    sim::Cycle latency() const { return latency_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t lineBytes() const { return lineBytes_; }
    const std::string &name() const { return name_; }

  private:
    /** Slot holding a live copy of @p line_id, or LiveWays::kNone. */
    std::size_t
    findLive(std::uint64_t line_id) const
    {
        return live_.firstLive(live_.setOf(line_id), lines_.data(), line_id);
    }

    /** Kill every live line of sets [@p first_set, @p end_set) whose id
     *  falls in [@p first, @p first + @p count). */
    void invalidateSpan(std::size_t first_set, std::size_t end_set,
                        std::uint64_t first, std::uint64_t count);

    std::string name_;
    unsigned sets_;
    unsigned ways_;
    std::uint64_t lineBytes_;
    sim::Cycle latency_;
    // Per-slot arrays indexed by set * ways + way. A slot's stamp is the
    // tick of its last fill or hit, so live stamps are all distinct.
    std::vector<std::uint64_t> lines_;
    std::vector<std::uint64_t> lastUse_;
    LiveWays live_;  // flushAll() bumps its generation
    std::uint64_t tick_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

}  // namespace grit::mem

#endif  // GRIT_MEM_DATA_CACHE_H_
