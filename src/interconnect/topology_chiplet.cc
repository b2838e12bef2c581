#include "interconnect/topology_chiplet.h"

#include <algorithm>
#include <cassert>
#include <string>

namespace grit::ic {

ChipletTopology::ChipletTopology(const FabricConfig &config)
    : Topology(config)
{
    assert(config.gpusPerChiplet >= 1);
    egress_.reserve(config.numGpus);
    ingress_.reserve(config.numGpus);
    for (unsigned g = 0; g < config.numGpus; ++g) {
        const std::string tag = "gpu" + std::to_string(g);
        egress_.push_back(std::make_unique<Link>(
            tag + ".chl.out", config.chipletGBs, config.chipletLatency));
        ingress_.push_back(std::make_unique<Link>(
            tag + ".chl.in", config.chipletGBs, config.chipletLatency));
    }
    const unsigned chiplets =
        (config.numGpus + config.gpusPerChiplet - 1) /
        config.gpusPerChiplet;
    bridgeOut_.reserve(chiplets);
    for (unsigned c = 0; c < chiplets; ++c) {
        bridgeOut_.push_back(std::make_unique<Link>(
            "chiplet" + std::to_string(c) + ".xbar.out",
            config.interposerGBs, config.interposerLatency));
    }
}

sim::Cycle
ChipletTopology::transfer(sim::Cycle now, sim::GpuId src, sim::GpuId dst,
                          std::uint64_t bytes)
{
    assert(src != dst && "transfer to self");
    now = chaosAdjust(now, src, dst, bytes);
    sim::Cycle done;
    if (src == sim::kHostId || dst == sim::kHostId) {
        done = pcieTransfer(now, src, bytes);
    } else {
        assert(src >= 0 && static_cast<unsigned>(src) < egress_.size());
        assert(dst >= 0 && static_cast<unsigned>(dst) < ingress_.size());
        Link &out = *egress_[static_cast<unsigned>(src)];
        Link &in = *ingress_[static_cast<unsigned>(dst)];
        if (chipletOf(src) == chipletOf(dst)) {
            // Local: both ports carry the payload in parallel, the
            // slower one bounds delivery.
            done = std::max(out.transfer(now, bytes),
                            in.transfer(now, bytes));
        } else {
            // Remote: store-and-forward across the interposer — the
            // narrow bridge is where cross-chiplet traffic piles up.
            const sim::Cycle at_bridge = out.transfer(now, bytes);
            const sim::Cycle crossed =
                bridgeOut_[chipletOf(src)]->transfer(at_bridge, bytes);
            done = in.transfer(crossed, bytes);
        }
    }
    traceTransfer(now, done, src, dst, bytes);
    return done;
}

sim::Cycle
ChipletTopology::flightLatency(sim::GpuId src, sim::GpuId dst) const
{
    if (src == sim::kHostId || dst == sim::kHostId)
        return config_.pcieLatency;
    if (chipletOf(src) == chipletOf(dst))
        return config_.chipletLatency;
    return 2 * config_.chipletLatency + config_.interposerLatency;
}

std::uint64_t
ChipletTopology::nvlinkBytes() const
{
    // Egress-side accounting: each payload counted once on its way in.
    std::uint64_t total = 0;
    for (const auto &link : egress_)
        total += link->bytesMoved();
    return total;
}

void
ChipletTopology::collectLinks(std::vector<const Link *> &out) const
{
    for (const auto &link : egress_)
        out.push_back(link.get());
    for (const auto &link : ingress_)
        out.push_back(link.get());
    for (const auto &link : bridgeOut_)
        out.push_back(link.get());
}

}  // namespace grit::ic
