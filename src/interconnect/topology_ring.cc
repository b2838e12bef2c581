#include "interconnect/topology_ring.h"

#include <cassert>
#include <string>

namespace grit::ic {

RingTopology::RingTopology(const FabricConfig &config) : Topology(config)
{
    cw_.reserve(config.numGpus);
    ccw_.reserve(config.numGpus);
    for (unsigned g = 0; g < config.numGpus; ++g) {
        const std::string tag = "gpu" + std::to_string(g);
        cw_.push_back(std::make_unique<Link>(
            tag + ".ring.cw", config.nvlinkGBs, config.nvlinkLatency));
        ccw_.push_back(std::make_unique<Link>(
            tag + ".ring.ccw", config.nvlinkGBs, config.nvlinkLatency));
    }
}

unsigned
RingTopology::hops(sim::GpuId src, sim::GpuId dst) const
{
    assert(src >= 0 && dst >= 0);
    const unsigned n = config_.numGpus;
    const unsigned forward =
        (static_cast<unsigned>(dst) + n - static_cast<unsigned>(src)) % n;
    return forward <= n - forward ? forward : n - forward;
}

int
RingTopology::direction(sim::GpuId src, sim::GpuId dst) const
{
    const unsigned n = config_.numGpus;
    const unsigned forward =
        (static_cast<unsigned>(dst) + n - static_cast<unsigned>(src)) % n;
    return forward <= n - forward ? +1 : -1;
}

Link &
RingTopology::segmentOf(unsigned gpu, int dir)
{
    assert(gpu < config_.numGpus);
    return dir > 0 ? *cw_[gpu] : *ccw_[gpu];
}

sim::Cycle
RingTopology::transfer(sim::Cycle now, sim::GpuId src, sim::GpuId dst,
                       std::uint64_t bytes)
{
    assert(src != dst && "transfer to self");
    if (src == sim::kHostId || dst == sim::kHostId) {
        now = chaosAdjust(now, src, dst, bytes);
        const sim::Cycle done = pcieTransfer(now, src, bytes);
        traceTransfer(now, done, src, dst, bytes);
        return done;
    }

    // Store-and-forward along the shorter arc: each hop re-checks the
    // chaos injector for its own segment and records its own trace
    // event, so a flapped or slowed intermediate segment perturbs
    // exactly the traffic routed through it.
    const int dir = direction(src, dst);
    const unsigned n = config_.numGpus;
    sim::Cycle t = now;
    unsigned at = static_cast<unsigned>(src);
    while (at != static_cast<unsigned>(dst)) {
        const unsigned next = dir > 0 ? (at + 1) % n : (at + n - 1) % n;
        std::uint64_t hop_bytes = bytes;
        const sim::Cycle start =
            chaosAdjust(t, static_cast<sim::GpuId>(at),
                        static_cast<sim::GpuId>(next), hop_bytes);
        t = segmentOf(at, dir).transfer(start, hop_bytes);
        traceTransfer(start, t, static_cast<sim::GpuId>(at),
                      static_cast<sim::GpuId>(next), hop_bytes);
        at = next;
    }
    return t;
}

sim::Cycle
RingTopology::flightLatency(sim::GpuId src, sim::GpuId dst) const
{
    if (src == sim::kHostId || dst == sim::kHostId)
        return config_.pcieLatency;
    return hops(src, dst) * config_.nvlinkLatency;
}

std::uint64_t
RingTopology::nvlinkBytes() const
{
    // Per-hop accounting: a payload crossing k segments is counted k
    // times — this is occupancy of the fabric, not goodput.
    std::uint64_t total = 0;
    for (const auto &link : cw_)
        total += link->bytesMoved();
    for (const auto &link : ccw_)
        total += link->bytesMoved();
    return total;
}

void
RingTopology::collectLinks(std::vector<const Link *> &out) const
{
    for (const auto &link : cw_)
        out.push_back(link.get());
    for (const auto &link : ccw_)
        out.push_back(link.get());
}

}  // namespace grit::ic
