/**
 * @file
 * Page-handling latency breakdown (paper Figure 3).
 *
 * Every cycle a memory access spends beyond the TLB hit path is charged
 * to exactly one of six categories defined in Section IV-A of the paper.
 */

#ifndef GRIT_STATS_LATENCY_BREAKDOWN_H_
#define GRIT_STATS_LATENCY_BREAKDOWN_H_

#include <array>
#include <cstdint>
#include <string>

#include "simcore/types.h"

namespace grit::stats {

/** The six page-handling latency categories of Figure 3. */
enum class LatencyKind : unsigned {
    /** Local page-table walk after an L2 TLB miss. */
    kLocal = 0,
    /** UVM driver page-fault handling on the host. */
    kHost,
    /** Flush + transfer + remap during on-touch / counter migrations. */
    kPageMigration,
    /** Remote data access over the inter-GPU fabric. */
    kRemoteAccess,
    /** Duplicating a page (incl. eviction and re-duplication). */
    kPageDuplication,
    /** Collapsing replicas when a shared page is written. */
    kWriteCollapse,
};

/** Number of LatencyKind categories. */
inline constexpr unsigned kLatencyKinds = 6;

/** Printable name of a category (matches the paper's legend). */
const char *latencyKindName(LatencyKind kind);

/** Accumulates cycles per category. */
class LatencyBreakdown
{
  public:
    /** Charge @p cycles to @p kind. */
    void
    add(LatencyKind kind, sim::Cycle cycles)
    {
        cycles_[static_cast<unsigned>(kind)] += cycles;
    }

    /** Cycles accumulated for @p kind. */
    sim::Cycle
    get(LatencyKind kind) const
    {
        return cycles_[static_cast<unsigned>(kind)];
    }

    /** Sum across all categories. */
    sim::Cycle total() const;

    /** Fraction of the total in @p kind; 0 when the total is zero. */
    double fraction(LatencyKind kind) const;

  private:
    std::array<sim::Cycle, kLatencyKinds> cycles_{};
};

}  // namespace grit::stats

#endif  // GRIT_STATS_LATENCY_BREAKDOWN_H_
