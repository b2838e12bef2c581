#include "interconnect/topology.h"

#include <cassert>
#include <cctype>

#include "interconnect/topology_all_to_all.h"
#include "interconnect/topology_chiplet.h"
#include "interconnect/topology_ring.h"
#include "interconnect/topology_switch.h"
#include "simcore/fault_injector.h"
#include "simcore/trace_recorder.h"

namespace grit::ic {

const char *
topologyKindName(TopologyKind kind)
{
    switch (kind) {
      case TopologyKind::kAllToAll: return "all-to-all";
      case TopologyKind::kRing:     return "ring";
      case TopologyKind::kSwitch:   return "switch";
      case TopologyKind::kChiplet:  return "chiplet";
    }
    return "?";
}

std::optional<TopologyKind>
topologyKindFromName(const std::string &name)
{
    std::string lower;
    lower.reserve(name.size());
    for (char c : name)
        lower.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
    for (TopologyKind kind : kAllTopologyKinds) {
        if (lower == topologyKindName(kind))
            return kind;
    }
    return std::nullopt;
}

Topology::Topology(const FabricConfig &config)
    : config_(config),
      pcieUp_("pcie.up", config.pcieGBs, config.pcieLatency),
      pcieDown_("pcie.down", config.pcieGBs, config.pcieLatency)
{
    assert(config.numGpus >= 1);
}

Topology::~Topology() = default;

sim::Cycle
Topology::message(sim::Cycle now, sim::GpuId src, sim::GpuId dst,
                  std::uint64_t bytes)
{
    ++messages_;
    messageBytes_ += bytes;
    return now + flightLatency(src, dst);
}

std::uint64_t
Topology::pcieBytes() const
{
    return pcieUp_.bytesMoved() + pcieDown_.bytesMoved();
}

std::vector<LinkStat>
Topology::linkStats() const
{
    std::vector<const Link *> links;
    collectLinks(links);
    links.push_back(&pcieUp_);
    links.push_back(&pcieDown_);
    std::vector<LinkStat> stats;
    stats.reserve(links.size());
    for (const Link *link : links)
        stats.push_back(
            {link->name(), link->bytesMoved(), link->busyCycles()});
    return stats;
}

sim::Cycle
Topology::chaosAdjust(sim::Cycle now, sim::GpuId src, sim::GpuId dst,
                      std::uint64_t &bytes)
{
    if (injector_ == nullptr || !injector_->enabled())
        return now;
    // Graceful degradation under link chaos: a flapped link stalls
    // the transfer with bounded exponential backoff; if the flap
    // outlasts every retry the transfer is forced through anyway
    // (counted, never dropped — the simulation must make progress).
    if (injector_->linkDown(src, dst, now)) {
        sim::Cycle backoff = kRetryBackoffCycles;
        unsigned attempt = 0;
        while (attempt < kMaxLinkRetries &&
               injector_->linkDown(src, dst, now)) {
            now += backoff;
            backoff *= 2;
            ++attempt;
            injector_->noteLinkRetry();
        }
        if (injector_->linkDown(src, dst, now))
            injector_->noteLinkForced();
        else
            injector_->noteLinkRecovered();
    }
    // Degraded-bandwidth windows serialize the payload slower.
    const unsigned slow = injector_->linkSlowFactor(src, dst, now);
    if (slow > 1) {
        bytes *= slow;
        injector_->noteSlowTransfer();
    }
    return now;
}

void
Topology::traceTransfer(sim::Cycle now, sim::Cycle done, sim::GpuId src,
                        sim::GpuId dst, std::uint64_t bytes)
{
    if (trace_)
        trace_->record("transfer", "fabric", now, done - now, src, bytes,
                       dst);
}

sim::Cycle
Topology::pcieTransfer(sim::Cycle now, sim::GpuId src, std::uint64_t bytes)
{
    return src == sim::kHostId ? pcieDown_.transfer(now, bytes)
                               : pcieUp_.transfer(now, bytes);
}

std::unique_ptr<Topology>
makeTopology(const FabricConfig &config)
{
    switch (config.kind) {
      case TopologyKind::kAllToAll:
        return std::make_unique<AllToAllTopology>(config);
      case TopologyKind::kRing:
        return std::make_unique<RingTopology>(config);
      case TopologyKind::kSwitch:
        return std::make_unique<SwitchTopology>(config);
      case TopologyKind::kChiplet:
        return std::make_unique<ChipletTopology>(config);
    }
    return std::make_unique<AllToAllTopology>(config);
}

}  // namespace grit::ic
