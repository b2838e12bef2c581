/**
 * @file
 * Per-GPU local page tables and the UVM driver's centralized page table.
 *
 * A translation in a GPU's local page table is either *local* (the
 * physical page lives in this GPU's DRAM — possibly as a duplication
 * replica) or *remote* (the PTE points at another GPU's DRAM, as
 * established by access counter-based migration or first-touch peer
 * mappings). The centralized table on the host additionally knows the
 * authoritative owner of every page.
 */

#ifndef GRIT_MEM_PAGE_TABLE_H_
#define GRIT_MEM_PAGE_TABLE_H_

#include <cstdint>
#include <optional>

#include "mem/pte.h"
#include "simcore/page_map.h"
#include "simcore/types.h"

namespace grit::mem {

/** How a valid local-PT translation reaches its data. */
enum class MappingKind : std::uint8_t {
    kLocal,   //!< page (or a replica) resides in this GPU's DRAM
    kRemote,  //!< translation points at another processor's DRAM
};

/**
 * A page-table record: one packed PTE word. The routing a translation
 * needs sits in the PTE's software-available bits (see Pte).
 */
struct PteRecord
{
    Pte pte;

    MappingKind
    kind() const
    {
        return pte.remote() ? MappingKind::kRemote : MappingKind::kLocal;
    }

    /** Where the data lives (this GPU for kLocal; owner for kRemote). */
    sim::GpuId location() const { return pte.location(); }

    /**
     * Replica mappings produced by page duplication are read-only; a
     * write hitting one raises a page-protection fault (Section II-B3).
     */
    bool readOnlyReplica() const { return pte.readOnlyReplica(); }
    void setReadOnlyReplica(bool v) { pte.setReadOnlyReplica(v); }
};

static_assert(sizeof(PteRecord) == 8, "a page-table record is one word");

/**
 * A page table: virtual page -> PteRecord.
 *
 * The same class backs each GPU's local table and the centralized host
 * table; only the surrounding bookkeeping differs.
 */
class PageTable
{
  public:
    /** Look up @p page; nullptr when no entry exists at all. */
    const PteRecord *find(sim::PageId page) const;
    PteRecord *find(sim::PageId page);

    /** True when a *valid* translation for @p page exists. */
    bool translates(sim::PageId page) const;

    /**
     * Install (or overwrite) a valid mapping.
     * @param page      virtual page.
     * @param kind      local or remote.
     * @param location  processor whose DRAM holds the data.
     * @param writable  R/W permission bit.
     * @param read_only_replica  duplication replica flag.
     * @return the installed record.
     */
    PteRecord &install(sim::PageId page, MappingKind kind,
                       sim::GpuId location, bool writable,
                       bool read_only_replica = false);

    /**
     * Clear the valid bit but keep scheme/group bits: GRIT's
     * neighboring-aware prediction annotates PTEs of pages that are not
     * currently mapped.
     */
    void invalidate(sim::PageId page);

    /** Drop the entry entirely. */
    void erase(sim::PageId page);

    /** Scheme bits of @p page; kNone when the entry does not exist. */
    Scheme scheme(sim::PageId page) const;

    /**
     * Set scheme bits, creating a (still-invalid) entry if needed so the
     * annotation survives before the first mapping.
     */
    void setScheme(sim::PageId page, Scheme scheme);

    /** Group bits of @p page; kPages1 when the entry does not exist. */
    GroupBits groupBits(sim::PageId page) const;

    /** Set group bits, creating an invalid entry if needed. */
    void setGroupBits(sim::PageId page, GroupBits bits);

    /** Number of entries (valid or annotation-only). */
    std::size_t size() const { return entries_.size(); }

    /** Entry storage: page-indexed dense leaves, deterministic order. */
    using EntryMap = sim::PageMap<PteRecord>;

    /**
     * All records (valid or annotation-only), for cross-layer audits.
     * Iteration order is deterministic (a pure function of the
     * operation sequence), so audit output is reproducible.
     */
    const EntryMap &entries() const { return entries_; }

    /** Number of entries with the valid bit set. */
    std::size_t validCount() const;

  private:
    PteRecord &obtain(sim::PageId page);

    EntryMap entries_;
};

}  // namespace grit::mem

#endif  // GRIT_MEM_PAGE_TABLE_H_
