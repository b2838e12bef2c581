/**
 * @file
 * Workload traces: per-GPU memory access streams.
 *
 * A Workload is the unit the simulator runs: one access stream per GPU
 * (already sharded by the contiguous-span thread-block scheduler the
 * generators emulate), plus Table II metadata. Accesses carry byte
 * addresses so the same workload runs under 4 KB and 2 MB page sizes
 * (the large-page study's false sharing emerges naturally).
 */

#ifndef GRIT_WORKLOAD_TRACE_H_
#define GRIT_WORKLOAD_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "simcore/types.h"

namespace grit::workload {

/**
 * Generator page granule: workloads are laid out and scaled in 4 KB
 * units no matter which mem::PageGeometry the simulator later runs
 * them under. Distinct from SystemConfig::geometry.baseSize on
 * purpose — regenerating a trace must not change when the simulated
 * page size does.
 */
inline constexpr std::uint64_t kGenPageBytes = sim::kPageSize4K;

/** One memory access: byte address + direction. */
struct Access
{
    sim::Address addr = 0;
    bool write = false;
};

/** A single GPU's in-order access stream. */
using GpuTrace = std::vector<Access>;

/** A complete multi-GPU workload. */
struct Workload
{
    std::string name;     //!< Table II abbreviation (e.g. "BFS")
    std::string fullName; //!< full application name
    std::string suite;    //!< benchmark suite
    std::string pattern;  //!< "Random", "Adjacent", "Scatter-Gather"
    /** Paper memory footprint (Table II), for documentation. */
    unsigned paperFootprintMB = 0;
    /** Scaled footprint actually generated, in kGenPageBytes units. */
    std::uint64_t footprintGenPages = 0;
    /** Per-GPU access streams. */
    std::vector<GpuTrace> traces;

    unsigned numGpus() const { return static_cast<unsigned>(traces.size()); }

    /** Footprint in bytes. */
    std::uint64_t
    footprintBytes() const
    {
        return footprintGenPages * kGenPageBytes;
    }

    /**
     * Footprint in pages of @p page_size bytes (rounded up) — how many
     * translation granules a simulator configured with that base page
     * size needs for this workload.
     */
    std::uint64_t
    footprintPages(std::uint64_t page_size) const
    {
        return (footprintBytes() + page_size - 1) / page_size;
    }

    /** Total accesses across all GPUs. */
    std::uint64_t totalAccesses() const;

    /** Total write accesses across all GPUs. */
    std::uint64_t totalWrites() const;
};

/**
 * Convert a logical page number + line index within it to a byte
 * address, under pages of @p page_size bytes. Generators emitting
 * 4 KB-granule layouts pass kGenPageBytes.
 */
inline sim::Address
pageLineAddr(sim::PageId page, unsigned line, std::uint64_t page_size)
{
    return page * page_size + static_cast<sim::Address>(line) * sim::kLineSize;
}

}  // namespace grit::workload

#endif  // GRIT_WORKLOAD_TRACE_H_
