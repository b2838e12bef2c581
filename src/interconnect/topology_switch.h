/**
 * @file
 * Electrical-switch topology: per-GPU ports into a shared crossbar.
 *
 * Every GPU feeds the switch through its own egress port
 * (NVLink-class); the payload then drains through the crossbar output
 * port serving the destination. The switch has a configurable radix:
 * GPU g drains from output port (g % switchRadix), so a radix at or
 * above the GPU count gives every destination a dedicated port while a
 * smaller radix oversubscribes ports across destinations. Output
 * ports are single-channel pipes, so two senders targeting one
 * receiver always serialize on its port — the port-contention model an
 * all-to-all fabric cannot express.
 */

#ifndef GRIT_INTERCONNECT_TOPOLOGY_SWITCH_H_
#define GRIT_INTERCONNECT_TOPOLOGY_SWITCH_H_

#include <memory>
#include <vector>

#include "interconnect/topology.h"

namespace grit::ic {

/** Shared electrical crossbar; see file comment. */
class SwitchTopology : public Topology
{
  public:
    explicit SwitchTopology(const FabricConfig &config);

    TopologyKind kind() const override { return TopologyKind::kSwitch; }

    sim::Cycle transfer(sim::Cycle now, sim::GpuId src, sim::GpuId dst,
                        std::uint64_t bytes) override;

    sim::Cycle flightLatency(sim::GpuId src, sim::GpuId dst) const override;

    std::uint64_t nvlinkBytes() const override;

  protected:
    void collectLinks(std::vector<const Link *> &out) const override;

  private:
    Link &portOf(sim::GpuId dst);

    std::vector<std::unique_ptr<Link>> egress_;  //!< GPU -> switch
    std::vector<std::unique_ptr<Link>> ports_;   //!< crossbar output ports
};

}  // namespace grit::ic

#endif  // GRIT_INTERCONNECT_TOPOLOGY_SWITCH_H_
