#include "interconnect/topology_all_to_all.h"

#include <algorithm>
#include <cassert>
#include <string>

namespace grit::ic {

AllToAllTopology::AllToAllTopology(const FabricConfig &config)
    : Topology(config)
{
    egress_.reserve(config.numGpus);
    ingress_.reserve(config.numGpus);
    for (unsigned g = 0; g < config.numGpus; ++g) {
        const std::string tag = "gpu" + std::to_string(g);
        egress_.push_back(std::make_unique<Link>(
            tag + ".nvlink.out", config.nvlinkGBs, config.nvlinkLatency));
        ingress_.push_back(std::make_unique<Link>(
            tag + ".nvlink.in", config.nvlinkGBs, config.nvlinkLatency));
    }
}

Link &
AllToAllTopology::egressOf(sim::GpuId id)
{
    assert(id >= 0 && static_cast<unsigned>(id) < egress_.size());
    return *egress_[static_cast<unsigned>(id)];
}

Link &
AllToAllTopology::ingressOf(sim::GpuId id)
{
    assert(id >= 0 && static_cast<unsigned>(id) < ingress_.size());
    return *ingress_[static_cast<unsigned>(id)];
}

sim::Cycle
AllToAllTopology::transfer(sim::Cycle now, sim::GpuId src, sim::GpuId dst,
                           std::uint64_t bytes)
{
    assert(src != dst && "transfer to self");
    now = chaosAdjust(now, src, dst, bytes);
    sim::Cycle done;
    if (src == sim::kHostId || dst == sim::kHostId) {
        done = pcieTransfer(now, src, bytes);
    } else {
        // GPU-to-GPU: both the source egress port and the destination
        // ingress port carry the payload; the slower one bounds delivery.
        const sim::Cycle out = egressOf(src).transfer(now, bytes);
        const sim::Cycle in = ingressOf(dst).transfer(now, bytes);
        done = std::max(out, in);
    }
    traceTransfer(now, done, src, dst, bytes);
    return done;
}

sim::Cycle
AllToAllTopology::flightLatency(sim::GpuId src, sim::GpuId dst) const
{
    if (src == sim::kHostId || dst == sim::kHostId)
        return config_.pcieLatency;
    return config_.nvlinkLatency;
}

std::uint64_t
AllToAllTopology::nvlinkBytes() const
{
    std::uint64_t total = 0;
    for (const auto &link : egress_)
        total += link->bytesMoved();
    return total;
}

void
AllToAllTopology::collectLinks(std::vector<const Link *> &out) const
{
    for (const auto &link : egress_)
        out.push_back(link.get());
    for (const auto &link : ingress_)
        out.push_back(link.get());
}

}  // namespace grit::ic
