/**
 * @file
 * Branch-free first-minimum search over short arrays of 64-bit values.
 *
 * The simulator picks the earliest-free DRAM channel, walker or fault
 * server on every access, walk and fault, and the least recently used
 * way on every TLB and L2 fill. Those orders look random to the branch
 * predictor, so std::min_element's compare-and-branch loop mispredicts
 * about once per call. firstMinIndex() selects with conditional moves
 * instead and returns exactly what std::min_element returns.
 */

#ifndef GRIT_SIMCORE_FIRST_MIN_H_
#define GRIT_SIMCORE_FIRST_MIN_H_

#include <cassert>
#include <cstddef>
#include <cstdint>

namespace grit::sim {

/**
 * Index of the minimum of @p v[0, @p n); on ties the lowest index wins,
 * as with std::min_element.
 * @pre n >= 1
 */
inline std::size_t
firstMinIndex(const std::uint64_t *v, std::size_t n)
{
    assert(n >= 1);
    std::size_t best = 0;
    std::uint64_t min = v[0];
    for (std::size_t i = 1; i < n; ++i) {
        // Strict `<` keeps the earlier index on a tie.
        const bool less = v[i] < min;
        best = less ? i : best;
        min = less ? v[i] : min;
    }
    return best;
}

}  // namespace grit::sim

#endif  // GRIT_SIMCORE_FIRST_MIN_H_
