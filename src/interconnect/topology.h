/**
 * @file
 * The interconnect topology: one forwarding table per fabric kind.
 *
 * Placement policies are only as credible as the fabric they are
 * evaluated on, so four fabrics are modelled (docs/TOPOLOGY.md):
 *
 *  - all-to-all: per-GPU NVLink ports into a full mesh, Table I's
 *    fabric and the default;
 *  - ring: directed ring segments with shortest-arc multi-hop routing;
 *  - switch: per-GPU ports into a shared crossbar whose single-channel
 *    output ports serialize traffic to one destination;
 *  - chiplet: cheap intra-chiplet links, expensive cross-interposer
 *    bridges.
 *
 * A kind is data, not code: construction lays out the kind's links and
 * fills a forwarding table with the next hop from every node (each GPU
 * and the host) toward every destination. transfer() follows those
 * hops, flightLatency() sums their link latencies and nvlinkBytes()
 * reads the links they leave through. Every kind shares the host PCIe
 * attachment, the control-message virtual channel (latency-only,
 * counted per message and per byte), the chaos FaultInjector hooks and
 * the TraceRecorder hooks, both applied once per hop. Per-link
 * byte/busy-cycle accounting is enumerable through linkStats() and
 * exported into grit-results documents as `fabric.*` counters
 * (docs/METRICS.md).
 */

#ifndef GRIT_INTERCONNECT_TOPOLOGY_H_
#define GRIT_INTERCONNECT_TOPOLOGY_H_

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "interconnect/link.h"
#include "simcore/types.h"

namespace grit::sim {
class FaultInjector;
class TraceRecorder;
}  // namespace grit::sim

namespace grit::ic {

/** Selectable interconnect topologies. */
enum class TopologyKind {
    kAllToAll,
    kRing,
    kSwitch,
    kChiplet,
};

/** Printable topology name ("all-to-all", "ring", ...). */
const char *topologyKindName(TopologyKind kind);

/** Parse a topology name (case-insensitive). */
std::optional<TopologyKind> topologyKindFromName(const std::string &name);

/** All selectable kinds, in declaration order (for sweeps). */
inline constexpr TopologyKind kAllTopologyKinds[] = {
    TopologyKind::kAllToAll,
    TopologyKind::kRing,
    TopologyKind::kSwitch,
    TopologyKind::kChiplet,
};

/** One link's accounting snapshot (linkStats() enumeration). */
struct LinkStat
{
    std::string name;           //!< diagnostic link name ("gpu0.ring.cw")
    std::uint64_t bytes = 0;    //!< payload bytes moved through the pipe
    sim::Cycle busyCycles = 0;  //!< cycles the pipe was occupied
};

/**
 * The interconnect: moves bulk payloads and control messages between
 * GPUs (and the host) along a kind's forwarding table.
 */
class Topology
{
  public:
    /** Lay out @p kind's links for @p num_gpus GPUs. @pre num_gpus >= 1 */
    Topology(TopologyKind kind, unsigned num_gpus);

    Topology(const Topology &) = delete;
    Topology &operator=(const Topology &) = delete;

    TopologyKind kind() const { return kind_; }

    unsigned numGpus() const { return numGpus_; }

    /**
     * Move @p bytes from @p src to @p dst (either may be sim::kHostId),
     * hop by hop: each hop starts when the previous one delivered
     * (store-and-forward) and occupies every link of its stages.
     * @return delivery completion time.
     */
    sim::Cycle transfer(sim::Cycle now, sim::GpuId src, sim::GpuId dst,
                        std::uint64_t bytes);

    /**
     * Control message (fault descriptor, invalidation, ack...). Control
     * packets ride a dedicated virtual channel: pure propagation
     * latency, never queued behind bulk page DMAs. Counted per message
     * and per byte (messages()/messageBytes()).
     */
    sim::Cycle message(sim::Cycle now, sim::GpuId src, sim::GpuId dst,
                       std::uint64_t bytes = 64);

    /**
     * One-way latency from @p src to @p dst with no queuing: the sum,
     * over the hops of the route, of each stage's slower link.
     */
    sim::Cycle flightLatency(sim::GpuId src, sim::GpuId dst) const;

    /**
     * Total payload bytes moved over the GPU-side fabric, counted on
     * the link each GPU-to-GPU hop leaves through: once per payload on
     * a direct fabric, once per segment crossed on the ring.
     */
    std::uint64_t nvlinkBytes() const;

    /** Total payload bytes moved over PCIe. */
    std::uint64_t pcieBytes() const;

    /** Control messages sent so far. */
    std::uint64_t messages() const { return messages_; }

    /** Control-plane bytes carried by those messages. */
    std::uint64_t messageBytes() const { return messageBytes_; }

    /**
     * Every link's accounting snapshot in layout order, PCIe last (the
     * `fabric.*` counter export).
     */
    std::vector<LinkStat> linkStats() const;

    /** Record bulk transfers as trace events; nullptr disables. */
    void setTrace(sim::TraceRecorder *trace) { trace_ = trace; }

    /** Attach the chaos fault injector; nullptr disables (default). */
    void setInjector(sim::FaultInjector *injector) { injector_ = injector; }

    /** Bounded exponential backoff while a chaos-flapped link is down. */
    static constexpr sim::Cycle kRetryBackoffCycles = 500;
    static constexpr unsigned kMaxLinkRetries = 8;

  private:
    static constexpr std::uint32_t kNoLink = UINT32_MAX;

    /**
     * One store-and-forward stage: a link, or two links carrying the
     * payload in parallel, where the slower one bounds delivery.
     */
    struct Stage
    {
        std::uint32_t link = kNoLink;
        std::uint32_t parallel = kNoLink;
    };

    /** The next hop toward a destination: where it ends, and how. */
    struct Hop
    {
        std::uint16_t to = 0;       //!< node the hop delivers to
        std::uint16_t stages = 0;   //!< 0 only on the (unused) diagonal
        std::uint32_t latency = 0;  //!< sum of each stage's slower link
        Stage stage[3];
    };

    /** Table index of a GPU, or numGpus() for the host. */
    std::uint32_t node(sim::GpuId id) const;

    /** Inverse of node(). */
    sim::GpuId idOf(std::uint32_t node) const;

    const Hop &hop(std::uint32_t from, std::uint32_t toward) const
    {
        return hops_[from * (numGpus_ + 1) + toward];
    }

    /** Append one link per GPU named "gpu<g>.<suffix>"; the first index. */
    std::uint32_t addGpuLinks(const char *suffix, double gb_per_s,
                              sim::Cycle latency);

    /** Append one link; its index. */
    std::uint32_t addLink(std::string name, double gb_per_s,
                          sim::Cycle latency, unsigned channels = 16);

    /** Set the hop from @p from toward @p toward. */
    void route(std::uint32_t from, std::uint32_t toward, std::uint32_t to,
               std::initializer_list<Stage> stages);

    /**
     * Apply the chaos perturbations for one hop @p src → @p dst: a
     * flapped link stalls the transfer with bounded exponential
     * backoff (forced through if the flap outlasts every retry — the
     * simulation must make progress), and degraded-bandwidth windows
     * inflate @p bytes so the payload serializes slower.
     * @pre an injector is attached.
     * @return the (possibly delayed) hop start time.
     */
    sim::Cycle chaosAdjust(sim::Cycle now, sim::GpuId src, sim::GpuId dst,
                           std::uint64_t &bytes);

    TopologyKind kind_;
    unsigned numGpus_;
    std::vector<Link> links_;
    std::vector<Hop> hops_;  //!< (numGpus + 1)^2, row = from node
    /** Links some GPU-to-GPU hop leaves through (nvlinkBytes()). */
    std::vector<std::uint32_t> egress_;
    sim::TraceRecorder *trace_ = nullptr;
    sim::FaultInjector *injector_ = nullptr;
    std::uint64_t messages_ = 0;
    std::uint64_t messageBytes_ = 0;
};

}  // namespace grit::ic

#endif  // GRIT_INTERCONNECT_TOPOLOGY_H_
