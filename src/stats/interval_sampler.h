/**
 * @file
 * Per-interval samplers backing the paper's temporal characterization
 * figures (Figs. 5, 6-8, 10).
 *
 * An IntervalSampler buckets observations into fixed-width windows of
 * simulated time (the paper uses one-million-cycle intervals) and keeps a
 * small vector of per-key counts per window.
 */

#ifndef GRIT_STATS_INTERVAL_SAMPLER_H_
#define GRIT_STATS_INTERVAL_SAMPLER_H_

#include <cstdint>
#include <vector>

#include "simcore/types.h"

namespace grit::stats {

/**
 * Counts observations per (interval, key) cell.
 *
 * Keys are small dense integers (GPU ids, attribute codes). Intervals
 * grow on demand; reads of untouched cells return zero.
 */
class IntervalSampler
{
  public:
    /**
     * @param interval_cycles window width in cycles. @pre > 0
     * @param keys            number of distinct keys tracked.
     */
    IntervalSampler(sim::Cycle interval_cycles, unsigned keys);

    /** Record one observation for @p key at time @p now. */
    void record(sim::Cycle now, unsigned key, std::uint64_t n = 1);

    /** Count in cell (interval, key). */
    std::uint64_t get(std::size_t interval, unsigned key) const;

    /** Number of intervals that received at least one observation slot. */
    std::size_t intervals() const { return cells_.size(); }

    /** Number of keys per interval. */
    unsigned keys() const { return keys_; }

    /** Total across keys within @p interval. */
    std::uint64_t intervalTotal(std::size_t interval) const;

    /**
     * Fraction of interval @p interval attributable to @p key;
     * 0 for empty intervals.
     */
    double fraction(std::size_t interval, unsigned key) const;

    sim::Cycle intervalCycles() const { return intervalCycles_; }

  private:
    sim::Cycle intervalCycles_;
    unsigned keys_;
    std::vector<std::vector<std::uint64_t>> cells_;
};

}  // namespace grit::stats

#endif  // GRIT_STATS_INTERVAL_SAMPLER_H_
