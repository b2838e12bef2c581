/**
 * @file
 * A point-to-point link: fixed propagation latency plus a
 * bandwidth-occupied pipe.
 *
 * At the simulator's 1 GHz clock, 1 byte/cycle equals 1 GB/s, so the
 * Table I fabrics are 300 B/cy (NVLink-v2) and 32 B/cy (PCIe-v4).
 */

#ifndef GRIT_INTERCONNECT_LINK_H_
#define GRIT_INTERCONNECT_LINK_H_

#include <cstdint>
#include <string>

#include "simcore/resource.h"
#include "simcore/types.h"

namespace grit::ic {

/** A unidirectional link port. */
class Link
{
  public:
    /**
     * @param name       diagnostic name.
     * @param gb_per_s   sustained bandwidth in GB/s.
     * @param latency    propagation + protocol latency in cycles.
     * @param channels   independent full-rate pipe channels. The
     *                   default absorbs the latency-chain timestamp
     *                   skew (see sim::BandwidthResource); pass 1 for
     *                   a strictly serializing pipe such as a switch
     *                   output port.
     */
    Link(std::string name, double gb_per_s, sim::Cycle latency,
         unsigned channels = 16);

    /**
     * Send @p bytes entering the pipe no earlier than @p now.
     * @return delivery completion time (queuing + serialization +
     *         propagation).
     */
    sim::Cycle transfer(sim::Cycle now, std::uint64_t bytes);

    sim::Cycle latency() const { return latency_; }
    sim::Cycle busyCycles() const { return pipe_.busyCycles(); }
    std::uint64_t bytesMoved() const { return pipe_.bytesMoved(); }
    const std::string &name() const { return pipe_.name(); }

  private:
    sim::BandwidthResource pipe_;
    sim::Cycle latency_;
};

}  // namespace grit::ic

#endif  // GRIT_INTERCONNECT_LINK_H_
