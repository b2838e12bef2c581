/**
 * @file
 * Page Attribute Cache (paper Section V-C, Figure 12).
 *
 * A 64-entry, 4-way set-associative hardware cache over the PA-Table
 * with write-allocate / write-back policy and LRU replacement. The VPN
 * splits into 4 index bits (the low bits select one of 16 sets) and a
 * virtual page tag. Misses allocate: either the PA-Table entry is
 * brought in, or a brand-new entry is registered directly in the cache
 * (the paper keeps fresh entries cache-resident because sharing makes a
 * follow-up fault from another GPU likely). Evictions write back to the
 * PA-Table; threshold hits delete the entry from both structures.
 */

#ifndef GRIT_CORE_PA_CACHE_H_
#define GRIT_CORE_PA_CACHE_H_

#include <cstdint>
#include <vector>

#include "core/pa_table.h"
#include "simcore/types.h"

namespace grit::core {

/** Outcome of recording one fault in the PA machinery. */
struct PaAccessResult
{
    /** Fault count after this access. */
    std::uint32_t faultCount = 0;
    /** Sticky read/write attribute after this access. */
    bool writeSeen = false;
    /** The probe hit in the PA-Cache. */
    bool cacheHit = false;
    /** On a cache miss, the entry was found in the PA-Table. */
    bool tableHit = false;
    /** The fault counter reached the threshold; entry deleted. */
    bool triggered = false;
    /** An LRU victim was written back to the PA-Table. */
    bool wroteBack = false;
};

/** Hardware PA-Cache front-ending a PaTable. */
class PaCache
{
  public:
    /**
     * @param table   backing PA-Table (not owned).
     * @param entries total entries (paper: 64).
     * @param ways    associativity (paper: 4).
     */
    PaCache(PaTable &table, unsigned entries = 64, unsigned ways = 4);

    /**
     * Record a fault for @p vpn (write faults set the sticky R/W bit)
     * and check the counter against @p threshold.
     */
    PaAccessResult recordFault(sim::PageId vpn, bool write,
                               std::uint32_t threshold);

    /** Hardware size in bytes: (tag + counter + R/W) bits per entry. */
    std::uint64_t hardwareBytes() const;

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t writebacks() const { return writebacks_; }

    unsigned sets() const { return sets_; }
    unsigned ways() const { return ways_; }

    /** Number of valid entries (test use). */
    std::size_t occupancy() const;

    /**
     * Drop every line WITHOUT writing back (chaos "paflush": in-flight
     * fault counts are lost; the policy repopulates from scratch).
     * Hit/miss statistics survive.
     */
    void invalidateAll();

    /**
     * Flush every valid line to the PA-Table, then invalidate (graceful
     * hand-off before a chaos "padisable" window: no counts are lost,
     * the policy continues table-only).
     */
    void writeBackAll();

  private:
    struct Line
    {
        sim::PageId vpn = 0;
        PaEntry entry;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    unsigned setIndex(sim::PageId vpn) const
    {
        return static_cast<unsigned>(vpn % sets_);
    }

    /** Evict the set's LRU line to the PA-Table; returns the slot. */
    Line &allocate(sim::PageId vpn, bool &wrote_back);

    PaTable &table_;
    unsigned sets_;
    unsigned ways_;
    std::vector<Line> lines_;
    std::uint64_t tick_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;
};

}  // namespace grit::core

#endif  // GRIT_CORE_PA_CACHE_H_
