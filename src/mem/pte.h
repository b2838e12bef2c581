/**
 * @file
 * Page-table entry format with GRIT's scheme and group bits.
 *
 * Reproduces Figure 14 of the paper: an x86-64-style 4 KB PTE whose
 * software-available bits 9-10 carry the page-placement scheme (Table IV)
 * and whose unused bits 52-53 carry the Neighboring-Aware-Prediction page
 * group size (Table V). The simulator keeps its own routing state in
 * bits the same way: bit 11 and bits 54-61.
 */

#ifndef GRIT_MEM_PTE_H_
#define GRIT_MEM_PTE_H_

#include <cassert>
#include <cstdint>

#include "simcore/types.h"

namespace grit::mem {

/**
 * Page-placement scheme encoded in PTE bits 9-10 (paper Table IV).
 *
 * kNone (00) means "no scheme recorded yet"; pages start under the
 * system-wide default (on-touch) until GRIT assigns an explicit scheme.
 */
enum class Scheme : std::uint8_t {
    kNone = 0,           //!< 00: unassigned (system default applies)
    kOnTouch = 1,        //!< 01: on-touch migration
    kAccessCounter = 2,  //!< 10: access counter-based migration
    kDuplication = 3,    //!< 11: page duplication
};

/** Printable scheme name. */
const char *schemeName(Scheme scheme);

/**
 * Page-group size encoded in PTE bits 52-53 of the group's base page
 * (paper Table V).
 */
enum class GroupBits : std::uint8_t {
    kPages1 = 0,    //!< 00: single 4 KB page
    kPages8 = 1,    //!< 01: 8 pages (32 KB)
    kPages64 = 2,   //!< 10: 64 pages (256 KB)
    kPages512 = 3,  //!< 11: 512 pages (2 MB)
};

/** Number of pages covered by a GroupBits value (1, 8, 64, 512). */
unsigned groupPages(GroupBits bits);

/** Smallest GroupBits covering at least @p pages; pages must be 1/8/64/512. */
GroupBits groupBitsFor(unsigned pages);

/**
 * A 64-bit packed page-table entry.
 *
 * Only the fields the simulator manipulates get accessors; the rest of
 * the x86 layout (PWT/PCD/PAT/G/XD) is preserved verbatim so round-trip
 * tests can assert the full bit layout of Figure 14.
 */
class Pte
{
  public:
    /** Largest location the routing bits hold (sim::kNoGpu is the least). */
    static constexpr sim::GpuId kMaxLocation = 125;

    Pte() = default;
    explicit Pte(std::uint64_t raw) : raw_(raw) {}

    std::uint64_t raw() const { return raw_; }

    bool valid() const { return bit(0); }
    void setValid(bool v) { setBit(0, v); }

    /** U/S bit 2 in Fig. 14's right-to-left ordering (V, U/S, R/W, ...). */
    bool userSupervisor() const { return bit(1); }
    void setUserSupervisor(bool v) { setBit(1, v); }

    /** R/W permission bit. */
    bool writable() const { return bit(2); }
    void setWritable(bool v) { setBit(2, v); }

    bool accessed() const { return bit(5); }
    void setAccessed(bool v) { setBit(5, v); }

    bool dirty() const { return bit(6); }
    void setDirty(bool v) { setBit(6, v); }

    /** Scheme bits 9-10 (Table IV). */
    Scheme
    scheme() const
    {
        return static_cast<Scheme>((raw_ >> 9) & 0x3);
    }

    void
    setScheme(Scheme scheme)
    {
        raw_ = (raw_ & ~(std::uint64_t{0x3} << 9)) |
               (static_cast<std::uint64_t>(scheme) << 9);
    }

    /** Physical frame number, bits 12-51. */
    std::uint64_t
    pfn() const
    {
        return (raw_ >> 12) & ((std::uint64_t{1} << 40) - 1);
    }

    void
    setPfn(std::uint64_t pfn)
    {
        const std::uint64_t mask = ((std::uint64_t{1} << 40) - 1) << 12;
        raw_ = (raw_ & ~mask) | ((pfn << 12) & mask);
    }

    /** Group-size bits 52-53 (Table V); meaningful on base pages only. */
    GroupBits
    groupBits() const
    {
        return static_cast<GroupBits>((raw_ >> 52) & 0x3);
    }

    void
    setGroupBits(GroupBits bits)
    {
        raw_ = (raw_ & ~(std::uint64_t{0x3} << 52)) |
               (static_cast<std::uint64_t>(bits) << 52);
    }

    /** Remote-mapping routing bit 11, next to the scheme bits. */
    bool remote() const { return bit(11); }
    void setRemote(bool v) { setBit(11, v); }

    /**
     * Where the data lives, bits 54-60 holding location + 2, so
     * all-zero bits read sim::kNoGpu.
     */
    sim::GpuId
    location() const
    {
        return static_cast<sim::GpuId>((raw_ >> 54) & 0x7F) - 2;
    }

    void
    setLocation(sim::GpuId location)
    {
        assert(location >= sim::kNoGpu && location <= kMaxLocation);
        raw_ = (raw_ & ~(std::uint64_t{0x7F} << 54)) |
               (static_cast<std::uint64_t>(location + 2) << 54);
    }

    /** Read-only duplication-replica routing bit 61. */
    bool readOnlyReplica() const { return bit(61); }
    void setReadOnlyReplica(bool v) { setBit(61, v); }

    bool operator==(const Pte &) const = default;

  private:
    bool bit(unsigned i) const { return (raw_ >> i) & 1; }

    void
    setBit(unsigned i, bool v)
    {
        raw_ = v ? (raw_ | (std::uint64_t{1} << i))
                 : (raw_ & ~(std::uint64_t{1} << i));
    }

    std::uint64_t raw_ = 0;
};

/**
 * Base page of the group of size @p group_pages containing @p page
 * (paper Section V-D's VPN_base formula).
 */
inline sim::PageId
groupBase(sim::PageId page, unsigned group_pages)
{
    return page - (page % group_pages);
}

}  // namespace grit::mem

#endif  // GRIT_MEM_PTE_H_
