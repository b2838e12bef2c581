/**
 * @file
 * Set-associative TLB with LRU replacement (paper Table I).
 *
 * The same class models the per-CU L1 TLB (32 entries, 32-way: fully
 * associative) and the GPU-shared L2 TLB (512 entries, 16-way). A cheap
 * generation counter implements whole-TLB shootdowns, which the UVM
 * driver issues on every migration, duplication collapse, and scheme
 * reset.
 *
 * Storage is structure-of-arrays: set scans (lookup, insert,
 * invalidate) touch one contiguous page-id array instead of striding
 * over padded entry structs, so the scans vectorize and stay inside a
 * few cache lines even for the fully associative L1. Each set keeps a
 * live-way bit mask, so an insert finds its free way with one bit scan
 * and picks an LRU victim with one branch-free pass over the stamps.
 */

#ifndef GRIT_MEM_TLB_H_
#define GRIT_MEM_TLB_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mem/live_ways.h"
#include "simcore/types.h"

namespace grit::mem {

/** A set-associative translation lookaside buffer. */
class Tlb
{
  public:
    /**
     * @param name    diagnostic name.
     * @param entries total entry count. @pre entries % ways == 0
     * @param ways    associativity (any width, including over 64).
     * @param latency lookup latency in cycles.
     */
    Tlb(std::string name, unsigned entries, unsigned ways,
        sim::Cycle latency);

    /** Lookup @p page; updates LRU on hit. */
    bool lookup(sim::PageId page);

    /**
     * Insert @p page, evicting the set's LRU victim if needed.
     * @return the live page the insert displaced, if any (a refill of
     *         an invalid or flushed slot displaces nothing). The page
     *         may still be held: an insert that finds an invalid slot
     *         before a live copy of its page fills another copy.
     */
    std::optional<sim::PageId> insert(sim::PageId page);

    /** True when a live entry for @p page exists; touches no state. */
    bool holds(sim::PageId page) const;

    /** Invalidate one page (single-entry shootdown). */
    void invalidate(sim::PageId page);

    /** Invalidate everything (full shootdown); O(1). */
    void flushAll();

    sim::Cycle latency() const { return latency_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    const std::string &name() const { return name_; }

    /** Valid entries currently held (walks the masks; test use). */
    std::size_t occupancy() const;

    /** Pages with live translations in slot order (audit use; does not
     *  touch LRU). */
    std::vector<sim::PageId> livePages() const;

  private:
    /** Slot of @p page's first live copy in @p set, or LiveWays::kNone. */
    std::size_t
    firstLive(std::size_t set, sim::PageId page) const
    {
        return live_.firstLive(set, pages_.data(), page);
    }

    std::string name_;
    unsigned sets_;
    unsigned ways_;
    sim::Cycle latency_;
    // Per-slot arrays indexed by set * ways + way. A slot's stamp is the
    // tick of its last fill or hit, so live stamps are all distinct.
    std::vector<sim::PageId> pages_;
    std::vector<std::uint64_t> lastUse_;
    LiveWays live_;  // flushAll() bumps its generation
    // The page the last lookup() missed, until the next insert(): only
    // an insert of that page could give it a live copy again.
    std::optional<sim::PageId> missed_;
    std::uint64_t tick_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

}  // namespace grit::mem

#endif  // GRIT_MEM_TLB_H_
