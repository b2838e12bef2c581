/**
 * @file
 * Page Attribute Table (paper Section V-C).
 *
 * A software table in CPU memory with one 48-bit entry per tracked
 * page: 45 bits of VPN, a 1-bit read/write attribute, and a 2-bit fault
 * counter. Entries appear when a page first faults and are deleted when
 * the fault counter reaches the threshold and the page's placement
 * scheme is updated. (The paper's 2-bit counter matches its default
 * threshold of four; we widen the counter for the Section VI-B1
 * threshold sensitivity study and report the architectural entry size
 * separately.)
 */

#ifndef GRIT_CORE_PA_TABLE_H_
#define GRIT_CORE_PA_TABLE_H_

#include <cstdint>

#include "simcore/page_map.h"
#include "simcore/types.h"

namespace grit::core {

/** Payload of one PA-Table entry (the VPN is the key). */
struct PaEntry
{
    /** Local + protection faults observed since the entry appeared. */
    std::uint32_t faultCounter = 0;
    /**
     * Read/write attribute: set on the first write fault and sticky for
     * the entry's lifetime (paper: "once set to 1 it remains unchanged
     * during the current scheme lifetime").
     */
    bool writeSeen = false;
};

/** Architectural bits per PA-Table entry (45 VPN + 2 counter + 1 R/W). */
inline constexpr unsigned kPaEntryBits = 48;

/** The in-memory Page Attribute Table. */
class PaTable
{
  public:
    /** Find @p vpn; nullptr when not tracked. */
    const PaEntry *find(sim::PageId vpn) const;

    /** Insert or overwrite the entry for @p vpn. */
    void put(sim::PageId vpn, const PaEntry &entry);

    /** Remove @p vpn. @return true if it existed. */
    bool erase(sim::PageId vpn);

    std::size_t size() const { return entries_.size(); }

    /**
     * Memory footprint in bytes at the architectural 48 bits/entry,
     * for the Section V-F overhead accounting.
     */
    std::uint64_t
    footprintBytes() const
    {
        return (static_cast<std::uint64_t>(size()) * kPaEntryBits + 7) / 8;
    }

    std::uint64_t reads() const { return reads_; }
    std::uint64_t writes() const { return writes_; }

  private:
    /**
     * Page-indexed dense leaves: the PA-Table sits on the fault path
     * (one find per fault, one put/erase per scheme decision), so its
     * insert-until-threshold-then-delete churn flips presence bits in
     * place instead of allocating per entry.
     */
    sim::PageMap<PaEntry> entries_;
    mutable std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
};

}  // namespace grit::core

#endif  // GRIT_CORE_PA_TABLE_H_
