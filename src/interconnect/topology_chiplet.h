/**
 * @file
 * Chiplet/interposer topology: cheap intra-chiplet links, expensive
 * cross-interposer bridges.
 *
 * GPUs are grouped into chiplets of gpusPerChiplet. Within a chiplet,
 * transfers ride short, wide local links (chipletGBs/chipletLatency):
 * the source egress and destination ingress ports carry the payload,
 * the slower bounding delivery (as in the all-to-all fabric). Across
 * chiplets, the payload additionally crosses the interposer: it leaves
 * through the source chiplet's out-bridge and lands through the
 * destination GPU's ingress port, store-and-forward, with the narrow
 * bridge (interposerGBs/interposerLatency) the usual bottleneck. The
 * local-vs-remote asymmetry this creates is what makes duplication
 * decisions topology-sensitive. The host hangs off shared PCIe.
 */

#ifndef GRIT_INTERCONNECT_TOPOLOGY_CHIPLET_H_
#define GRIT_INTERCONNECT_TOPOLOGY_CHIPLET_H_

#include <memory>
#include <vector>

#include "interconnect/topology.h"

namespace grit::ic {

/** Interposer-linked chiplets; see file comment. */
class ChipletTopology : public Topology
{
  public:
    explicit ChipletTopology(const FabricConfig &config);

    TopologyKind kind() const override { return TopologyKind::kChiplet; }

    sim::Cycle transfer(sim::Cycle now, sim::GpuId src, sim::GpuId dst,
                        std::uint64_t bytes) override;

    sim::Cycle flightLatency(sim::GpuId src, sim::GpuId dst) const override;

    std::uint64_t nvlinkBytes() const override;

    /** The chiplet holding @p gpu. */
    unsigned chipletOf(sim::GpuId gpu) const
    {
        return static_cast<unsigned>(gpu) / config_.gpusPerChiplet;
    }

  protected:
    void collectLinks(std::vector<const Link *> &out) const override;

  private:
    std::vector<std::unique_ptr<Link>> egress_;   //!< GPU local-out port
    std::vector<std::unique_ptr<Link>> ingress_;  //!< GPU local-in port
    std::vector<std::unique_ptr<Link>> bridgeOut_;  //!< chiplet -> interposer
};

}  // namespace grit::ic

#endif  // GRIT_INTERCONNECT_TOPOLOGY_CHIPLET_H_
