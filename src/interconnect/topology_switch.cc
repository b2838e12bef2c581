#include "interconnect/topology_switch.h"

#include <cassert>
#include <string>

namespace grit::ic {

SwitchTopology::SwitchTopology(const FabricConfig &config)
    : Topology(config)
{
    assert(config.switchRadix >= 1);
    egress_.reserve(config.numGpus);
    for (unsigned g = 0; g < config.numGpus; ++g) {
        egress_.push_back(std::make_unique<Link>(
            "gpu" + std::to_string(g) + ".sw.out", config.nvlinkGBs,
            config.nvlinkLatency));
    }
    ports_.reserve(config.switchRadix);
    for (unsigned p = 0; p < config.switchRadix; ++p) {
        // Single-channel: an output port is one serializing pipe, so
        // concurrent payloads to the same destination queue behind one
        // another instead of spreading across parallel channels.
        ports_.push_back(std::make_unique<Link>(
            "sw.port" + std::to_string(p), config.switchGBs,
            config.switchLatency, /*channels=*/1));
    }
}

Link &
SwitchTopology::portOf(sim::GpuId dst)
{
    assert(dst >= 0);
    return *ports_[static_cast<unsigned>(dst) % config_.switchRadix];
}

sim::Cycle
SwitchTopology::transfer(sim::Cycle now, sim::GpuId src, sim::GpuId dst,
                         std::uint64_t bytes)
{
    assert(src != dst && "transfer to self");
    now = chaosAdjust(now, src, dst, bytes);
    sim::Cycle done;
    if (src == sim::kHostId || dst == sim::kHostId) {
        done = pcieTransfer(now, src, bytes);
    } else {
        // Store-and-forward: into the switch through the source port,
        // then out through the (possibly contended) crossbar port
        // serving the destination.
        assert(src >= 0 && static_cast<unsigned>(src) < egress_.size());
        const sim::Cycle at_switch =
            egress_[static_cast<unsigned>(src)]->transfer(now, bytes);
        done = portOf(dst).transfer(at_switch, bytes);
    }
    traceTransfer(now, done, src, dst, bytes);
    return done;
}

sim::Cycle
SwitchTopology::flightLatency(sim::GpuId src, sim::GpuId dst) const
{
    if (src == sim::kHostId || dst == sim::kHostId)
        return config_.pcieLatency;
    return config_.nvlinkLatency + config_.switchLatency;
}

std::uint64_t
SwitchTopology::nvlinkBytes() const
{
    // Egress-side accounting: each payload counted once on its way in.
    std::uint64_t total = 0;
    for (const auto &link : egress_)
        total += link->bytesMoved();
    return total;
}

void
SwitchTopology::collectLinks(std::vector<const Link *> &out) const
{
    for (const auto &link : egress_)
        out.push_back(link.get());
    for (const auto &link : ports_)
        out.push_back(link.get());
}

}  // namespace grit::ic
