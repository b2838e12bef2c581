/**
 * @file
 * The all-to-all NVLink fabric (the default topology).
 *
 * GPUs connect all-to-all through per-GPU NVLink ports (one egress and
 * one ingress pipe each, 300 GB/s per Table I); the host hangs off a
 * shared PCIe-v4 link (32 GB/s). A GPU<->GPU transfer occupies the
 * source egress and destination ingress ports; a host transfer occupies
 * the PCIe pipe in the relevant direction.
 */

#ifndef GRIT_INTERCONNECT_TOPOLOGY_ALL_TO_ALL_H_
#define GRIT_INTERCONNECT_TOPOLOGY_ALL_TO_ALL_H_

#include <memory>
#include <vector>

#include "interconnect/topology.h"

namespace grit::ic {

/** Full mesh: every GPU pair one NVLink hop apart. */
class AllToAllTopology : public Topology
{
  public:
    explicit AllToAllTopology(const FabricConfig &config);

    TopologyKind kind() const override { return TopologyKind::kAllToAll; }

    sim::Cycle transfer(sim::Cycle now, sim::GpuId src, sim::GpuId dst,
                        std::uint64_t bytes) override;

    sim::Cycle flightLatency(sim::GpuId src, sim::GpuId dst) const override;

    std::uint64_t nvlinkBytes() const override;

  protected:
    void collectLinks(std::vector<const Link *> &out) const override;

  private:
    Link &egressOf(sim::GpuId id);
    Link &ingressOf(sim::GpuId id);

    std::vector<std::unique_ptr<Link>> egress_;
    std::vector<std::unique_ptr<Link>> ingress_;
};

}  // namespace grit::ic

#endif  // GRIT_INTERCONNECT_TOPOLOGY_ALL_TO_ALL_H_
