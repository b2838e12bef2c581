#include "interconnect/topology.h"

#include <algorithm>
#include <cassert>
#include <cctype>

#include "simcore/fault_injector.h"
#include "simcore/trace_recorder.h"

namespace grit::ic {

namespace {

// Table I's fabric: NVLink-v2 GPU ports and a PCIe-v4 host link. The
// ring's segments and the switch's GPU ports are NVLink-class too.
constexpr double kNvlinkGBs = 300.0;
constexpr sim::Cycle kNvlinkLatency = 700;
constexpr double kPcieGBs = 32.0;
constexpr sim::Cycle kPcieLatency = 1000;

// Electrical switch: GPU g drains from output port g % kSwitchPorts, so
// above kSwitchPorts GPUs destinations share ports.
constexpr unsigned kSwitchPorts = 8;
constexpr double kSwitchGBs = 300.0;
constexpr sim::Cycle kSwitchLatency = 100;

// Chiplets: short, wide links inside a chiplet; a long, narrow
// interposer bridge out of each (the local-vs-remote HBM asymmetry).
constexpr unsigned kGpusPerChiplet = 2;
constexpr double kChipletGBs = 600.0;
constexpr sim::Cycle kChipletLatency = 200;
constexpr double kInterposerGBs = 100.0;
constexpr sim::Cycle kInterposerLatency = 1200;

}  // namespace

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

Topology::Topology(TopologyKind kind, unsigned num_gpus)
    : kind_(kind), numGpus_(num_gpus),
      hops_(static_cast<std::size_t>(num_gpus + 1) * (num_gpus + 1))
{
    assert(num_gpus >= 1 && num_gpus < UINT16_MAX);
    const std::uint32_t n = num_gpus;
    const auto gpu_pairs = [n](auto &&fn) {
        for (std::uint32_t s = 0; s < n; ++s)
            for (std::uint32_t d = 0; d < n; ++d)
                if (s != d)
                    fn(s, d);
    };

    switch (kind) {
      case TopologyKind::kAllToAll: {
        const std::uint32_t out =
            addGpuLinks("nvlink.out", kNvlinkGBs, kNvlinkLatency);
        const std::uint32_t in =
            addGpuLinks("nvlink.in", kNvlinkGBs, kNvlinkLatency);
        gpu_pairs([&](std::uint32_t s, std::uint32_t d) {
            route(s, d, d, {{out + s, in + d}});
        });
        break;
      }
      case TopologyKind::kRing: {
        const std::uint32_t cw =
            addGpuLinks("ring.cw", kNvlinkGBs, kNvlinkLatency);
        const std::uint32_t ccw =
            addGpuLinks("ring.ccw", kNvlinkGBs, kNvlinkLatency);
        // Shorter arc, ties clockwise. Every node on a clockwise route
        // is also nearer its destination clockwise (and likewise
        // counterclockwise), so one next hop per destination
        // reproduces the whole multi-hop route.
        gpu_pairs([&](std::uint32_t s, std::uint32_t d) {
            const std::uint32_t forward = (d + n - s) % n;
            if (forward <= n - forward)
                route(s, d, (s + 1) % n, {{cw + s}});
            else
                route(s, d, (s + n - 1) % n, {{ccw + s}});
        });
        break;
      }
      case TopologyKind::kSwitch: {
        const std::uint32_t out =
            addGpuLinks("sw.out", kNvlinkGBs, kNvlinkLatency);
        // Single-channel: an output port is one serializing pipe, so
        // concurrent payloads to the same destination queue behind one
        // another instead of spreading across parallel channels.
        const auto port = static_cast<std::uint32_t>(links_.size());
        for (unsigned p = 0; p < kSwitchPorts; ++p)
            addLink("sw.port" + std::to_string(p), kSwitchGBs,
                    kSwitchLatency, /*channels=*/1);
        gpu_pairs([&](std::uint32_t s, std::uint32_t d) {
            route(s, d, d, {{out + s}, {port + d % kSwitchPorts}});
        });
        break;
      }
      case TopologyKind::kChiplet: {
        const std::uint32_t out =
            addGpuLinks("chl.out", kChipletGBs, kChipletLatency);
        const std::uint32_t in =
            addGpuLinks("chl.in", kChipletGBs, kChipletLatency);
        const auto bridge = static_cast<std::uint32_t>(links_.size());
        for (unsigned c = 0; c * kGpusPerChiplet < n; ++c)
            addLink("chiplet" + std::to_string(c) + ".xbar.out",
                    kInterposerGBs, kInterposerLatency);
        gpu_pairs([&](std::uint32_t s, std::uint32_t d) {
            const std::uint32_t chiplet = s / kGpusPerChiplet;
            if (chiplet == d / kGpusPerChiplet)
                route(s, d, d, {{out + s, in + d}});
            else
                route(s, d, d, {{out + s}, {bridge + chiplet}, {in + d}});
        });
        break;
      }
    }

    // fabric.nvlink_bytes counts the link each GPU-to-GPU hop leaves
    // through.
    gpu_pairs([&](std::uint32_t s, std::uint32_t d) {
        egress_.push_back(hop(s, d).stage[0].link);
    });
    std::sort(egress_.begin(), egress_.end());
    egress_.erase(std::unique(egress_.begin(), egress_.end()),
                  egress_.end());

    // The host hangs off one shared PCIe link per direction.
    const std::uint32_t up = addLink("pcie.up", kPcieGBs, kPcieLatency);
    const std::uint32_t down =
        addLink("pcie.down", kPcieGBs, kPcieLatency);
    for (std::uint32_t g = 0; g < n; ++g) {
        route(g, n, n, {{up}});
        route(n, g, g, {{down}});
    }
}

std::uint32_t
Topology::addGpuLinks(const char *suffix, double gb_per_s,
                      sim::Cycle latency)
{
    const auto first = static_cast<std::uint32_t>(links_.size());
    for (unsigned g = 0; g < numGpus_; ++g)
        addLink("gpu" + std::to_string(g) + "." + suffix, gb_per_s,
                latency);
    return first;
}

std::uint32_t
Topology::addLink(std::string name, double gb_per_s, sim::Cycle latency,
                  unsigned channels)
{
    links_.emplace_back(std::move(name), gb_per_s, latency, channels);
    return static_cast<std::uint32_t>(links_.size() - 1);
}

void
Topology::route(std::uint32_t from, std::uint32_t toward, std::uint32_t to,
                std::initializer_list<Stage> stages)
{
    assert(stages.size() >= 1 && stages.size() <= 3);
    Hop &entry = hops_[from * (numGpus_ + 1) + toward];
    entry.to = static_cast<std::uint16_t>(to);
    entry.stages = static_cast<std::uint16_t>(stages.size());
    std::copy(stages.begin(), stages.end(), entry.stage);
    sim::Cycle total = 0;
    for (const Stage &stage : stages) {
        sim::Cycle latency = links_[stage.link].latency();
        if (stage.parallel != kNoLink)
            latency = std::max(latency, links_[stage.parallel].latency());
        total += latency;
    }
    entry.latency = static_cast<std::uint32_t>(total);
}

std::uint32_t
Topology::node(sim::GpuId id) const
{
    if (id == sim::kHostId)
        return numGpus_;
    assert(id >= 0 && static_cast<unsigned>(id) < numGpus_);
    return static_cast<std::uint32_t>(id);
}

sim::GpuId
Topology::idOf(std::uint32_t node) const
{
    return node == numGpus_ ? sim::kHostId : static_cast<sim::GpuId>(node);
}

sim::Cycle
Topology::transfer(sim::Cycle now, sim::GpuId src, sim::GpuId dst,
                   std::uint64_t bytes)
{
    assert(src != dst && "transfer to self");
    const std::uint32_t last = node(dst);
    sim::Cycle t = now;
    for (std::uint32_t at = node(src); at != last;) {
        const Hop &h = hop(at, last);
        // Each hop re-derives its bytes from the payload, so a chaos
        // slowdown never compounds across segments.
        std::uint64_t hop_bytes = bytes;
        const sim::Cycle start =
            injector_ != nullptr
                ? chaosAdjust(t, idOf(at), idOf(h.to), hop_bytes)
                : t;
        t = start;
        for (std::uint32_t i = 0; i < h.stages; ++i) {
            const Stage &stage = h.stage[i];
            sim::Cycle done = links_[stage.link].transfer(t, hop_bytes);
            if (stage.parallel != kNoLink)
                done = std::max(
                    done, links_[stage.parallel].transfer(t, hop_bytes));
            t = done;
        }
        if (trace_)
            trace_->record("transfer", "fabric", start, t - start,
                           idOf(at), hop_bytes, idOf(h.to));
        at = h.to;
    }
    return t;
}

sim::Cycle
Topology::message(sim::Cycle now, sim::GpuId src, sim::GpuId dst,
                  std::uint64_t bytes)
{
    ++messages_;
    messageBytes_ += bytes;
    return now + flightLatency(src, dst);
}

sim::Cycle
Topology::flightLatency(sim::GpuId src, sim::GpuId dst) const
{
    const std::uint32_t last = node(dst);
    sim::Cycle total = 0;
    for (std::uint32_t at = node(src); at != last;) {
        const Hop &h = hop(at, last);
        total += h.latency;
        at = h.to;
    }
    return total;
}

std::uint64_t
Topology::nvlinkBytes() const
{
    std::uint64_t total = 0;
    for (std::uint32_t link : egress_)
        total += links_[link].bytesMoved();
    return total;
}

std::uint64_t
Topology::pcieBytes() const
{
    // pcie.up and pcie.down are always the last two links.
    return links_[links_.size() - 2].bytesMoved() +
           links_.back().bytesMoved();
}

std::vector<LinkStat>
Topology::linkStats() const
{
    std::vector<LinkStat> stats;
    stats.reserve(links_.size());
    for (const Link &link : links_)
        stats.push_back({link.name(), link.bytesMoved(), link.busyCycles()});
    return stats;
}

sim::Cycle
Topology::chaosAdjust(sim::Cycle now, sim::GpuId src, sim::GpuId dst,
                      std::uint64_t &bytes)
{
    if (!injector_->enabled())
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

}  // namespace grit::ic
