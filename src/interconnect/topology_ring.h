/**
 * @file
 * Bidirectional ring topology with multi-hop shortest-path routing.
 *
 * Each GPU owns two directed ring segments: clockwise (g -> g+1 mod N)
 * and counterclockwise (g -> g-1 mod N), each an NVLink-class pipe.
 * A transfer takes the direction with fewer hops (ties go clockwise)
 * and is forwarded store-and-forward: every hop occupies that
 * segment's bandwidth pipe and adds its propagation latency, so
 * distant pairs pay hops x (serialization + latency) and through
 * traffic contends with traffic originating on intermediate GPUs.
 * Chaos perturbations and trace events apply per hop.
 */

#ifndef GRIT_INTERCONNECT_TOPOLOGY_RING_H_
#define GRIT_INTERCONNECT_TOPOLOGY_RING_H_

#include <memory>
#include <vector>

#include "interconnect/topology.h"

namespace grit::ic {

/** Directed-segment ring; see file comment. */
class RingTopology : public Topology
{
  public:
    explicit RingTopology(const FabricConfig &config);

    TopologyKind kind() const override { return TopologyKind::kRing; }

    sim::Cycle transfer(sim::Cycle now, sim::GpuId src, sim::GpuId dst,
                        std::uint64_t bytes) override;

    sim::Cycle flightLatency(sim::GpuId src, sim::GpuId dst) const override;

    std::uint64_t nvlinkBytes() const override;

    /** Shortest-path hop count between two GPUs. */
    unsigned hops(sim::GpuId src, sim::GpuId dst) const;

  protected:
    void collectLinks(std::vector<const Link *> &out) const override;

  private:
    /** +1 for clockwise routing of src -> dst, -1 for counterclockwise. */
    int direction(sim::GpuId src, sim::GpuId dst) const;

    /** The directed segment leaving @p gpu in @p dir. */
    Link &segmentOf(unsigned gpu, int dir);

    std::vector<std::unique_ptr<Link>> cw_;   //!< g -> (g+1) % N
    std::vector<std::unique_ptr<Link>> ccw_;  //!< g -> (g-1+N) % N
};

}  // namespace grit::ic

#endif  // GRIT_INTERCONNECT_TOPOLOGY_RING_H_
