/**
 * @file
 * The pluggable interconnect-topology interface.
 *
 * Placement policies are only as credible as the fabric they are
 * evaluated on. The fabric is therefore a first-class model behind an
 * abstract Topology interface with four concrete implementations:
 *
 *  - all-to-all (topology_all_to_all.h): per-GPU NVLink ports into a
 *    full mesh, the historical default;
 *  - ring (topology_ring.h): directed ring segments with multi-hop
 *    shortest-path routing;
 *  - switch (topology_switch.h): per-GPU ports into a shared electrical
 *    crossbar with output-port contention and a configurable radix;
 *  - chiplet (topology_chiplet.h): cheap intra-chiplet links, expensive
 *    cross-interposer bridges.
 *
 * Every topology shares the host PCIe attachment, the control-message
 * virtual channel (latency-only, counted per message and per byte),
 * the chaos FaultInjector hooks (applied per hop on routed
 * topologies), and the TraceRecorder hooks. Per-link byte/busy-cycle
 * accounting is enumerable through linkStats() and exported into
 * grit-results documents as `fabric.*` counters (docs/TOPOLOGY.md,
 * docs/METRICS.md).
 */

#ifndef GRIT_INTERCONNECT_TOPOLOGY_H_
#define GRIT_INTERCONNECT_TOPOLOGY_H_

#include <cstdint>
#include <memory>
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

/**
 * Fabric configuration: the topology kind plus the parameters of every
 * model (only the selected kind's parameters are read; validation is
 * equally selective).
 */
struct FabricConfig
{
    TopologyKind kind = TopologyKind::kAllToAll;
    unsigned numGpus = 4;

    // All-to-all / ring / switch GPU ports (Table I NVLink-v2).
    double nvlinkGBs = 300.0;        //!< per-port bandwidth
    sim::Cycle nvlinkLatency = 700;  //!< one-way latency (cycles)

    // Host attachment, shared by every topology (Table I PCIe-v4).
    double pcieGBs = 32.0;
    sim::Cycle pcieLatency = 1000;

    // Electrical switch: GPUs feed a shared crossbar; GPU g drains
    // from output port (g % switchRadix), so a radix below numGpus
    // oversubscribes ports and two senders to one receiver always
    // serialize on its port.
    unsigned switchRadix = 8;        //!< crossbar output ports
    double switchGBs = 300.0;        //!< per-output-port bandwidth
    sim::Cycle switchLatency = 100;  //!< crossbar traversal latency

    // Chiplet/interposer: GPUs are grouped into chiplets; intra-chiplet
    // links are short and wide, cross-interposer bridges long and
    // narrow (the local-vs-remote HBM asymmetry).
    unsigned gpusPerChiplet = 2;
    double chipletGBs = 600.0;            //!< intra-chiplet link bandwidth
    sim::Cycle chipletLatency = 200;      //!< intra-chiplet latency
    double interposerGBs = 100.0;         //!< per-chiplet bridge bandwidth
    sim::Cycle interposerLatency = 1200;  //!< cross-interposer latency
};

/** One link's accounting snapshot (linkStats() enumeration). */
struct LinkStat
{
    std::string name;           //!< diagnostic link name ("gpu0.ring.cw")
    std::uint64_t bytes = 0;    //!< payload bytes moved through the pipe
    sim::Cycle busyCycles = 0;  //!< cycles the pipe was occupied
};

/**
 * Abstract interconnect: moves bulk payloads and control messages
 * between GPUs (and the host) under some topology's routing and
 * contention model.
 */
class Topology
{
  public:
    explicit Topology(const FabricConfig &config);
    virtual ~Topology();

    Topology(const Topology &) = delete;
    Topology &operator=(const Topology &) = delete;

    virtual TopologyKind kind() const = 0;

    /**
     * Move @p bytes from @p src to @p dst (either may be sim::kHostId).
     * Occupies every link on the route; multi-hop topologies compose
     * hop completions (store-and-forward).
     * @return delivery completion time.
     */
    virtual sim::Cycle transfer(sim::Cycle now, sim::GpuId src,
                                sim::GpuId dst, std::uint64_t bytes) = 0;

    /**
     * Control message (fault descriptor, invalidation, ack...). Control
     * packets ride a dedicated virtual channel: pure propagation
     * latency, never queued behind bulk page DMAs. Counted per message
     * and per byte (messages()/messageBytes()).
     */
    sim::Cycle message(sim::Cycle now, sim::GpuId src, sim::GpuId dst,
                       std::uint64_t bytes = 64);

    /** One-way latency between @p src and @p dst with no queuing. */
    virtual sim::Cycle flightLatency(sim::GpuId src,
                                     sim::GpuId dst) const = 0;

    unsigned numGpus() const { return config_.numGpus; }

    /**
     * Total payload bytes moved over the GPU-side fabric. Routed
     * topologies count every hop a payload occupies (ring), direct
     * ones count the payload once (egress-side accounting).
     */
    virtual std::uint64_t nvlinkBytes() const = 0;

    /** Total payload bytes moved over PCIe. */
    std::uint64_t pcieBytes() const;

    /** Control messages sent so far. */
    std::uint64_t messages() const { return messages_; }

    /** Control-plane bytes carried by those messages. */
    std::uint64_t messageBytes() const { return messageBytes_; }

    /**
     * Every link's accounting snapshot, PCIe included, in a
     * deterministic topology-defined order (the `fabric.*` counter
     * export).
     */
    std::vector<LinkStat> linkStats() const;

    /** Record bulk transfers as trace events; nullptr disables. */
    void setTrace(sim::TraceRecorder *trace) { trace_ = trace; }

    /** Attach the chaos fault injector; nullptr disables (default). */
    void setInjector(sim::FaultInjector *injector) { injector_ = injector; }

    /** Bounded exponential backoff while a chaos-flapped link is down. */
    static constexpr sim::Cycle kRetryBackoffCycles = 500;
    static constexpr unsigned kMaxLinkRetries = 8;

  protected:
    /**
     * Apply the chaos perturbations for one hop @p src → @p dst: a
     * flapped link stalls the transfer with bounded exponential
     * backoff (forced through if the flap outlasts every retry — the
     * simulation must make progress), and degraded-bandwidth windows
     * inflate @p bytes so the payload serializes slower.
     * @return the (possibly delayed) hop start time.
     */
    sim::Cycle chaosAdjust(sim::Cycle now, sim::GpuId src, sim::GpuId dst,
                           std::uint64_t &bytes);

    /** Record one bulk-transfer trace event, if tracing. */
    void traceTransfer(sim::Cycle now, sim::Cycle done, sim::GpuId src,
                       sim::GpuId dst, std::uint64_t bytes);

    /** Route a host-bound transfer over the shared PCIe link. */
    sim::Cycle pcieTransfer(sim::Cycle now, sim::GpuId src,
                            std::uint64_t bytes);

    /** Topology hook: GPU-side links for the linkStats() enumeration. */
    virtual void collectLinks(std::vector<const Link *> &out) const = 0;

    const FabricConfig config_;
    Link pcieUp_;    //!< GPU -> host
    Link pcieDown_;  //!< host -> GPU
    sim::TraceRecorder *trace_ = nullptr;
    sim::FaultInjector *injector_ = nullptr;

  private:
    std::uint64_t messages_ = 0;
    std::uint64_t messageBytes_ = 0;
};

/** Construct the topology selected by @p config.kind. */
std::unique_ptr<Topology> makeTopology(const FabricConfig &config);

}  // namespace grit::ic

#endif  // GRIT_INTERCONNECT_TOPOLOGY_H_
