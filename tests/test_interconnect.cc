/** @file Unit tests for links and the fabric topologies. */

#include <gtest/gtest.h>

#include "interconnect/link.h"
#include "interconnect/topology.h"
#include "simcore/fault_injector.h"
#include "simcore/trace_recorder.h"

namespace grit::ic {
namespace {

TEST(Link, TransferAddsSerializationAndLatency)
{
    Link link("l", 1.0, 100);  // 1 B/cy, 100-cycle latency
    // 50 bytes: 50 cycles serialization + 100 latency.
    EXPECT_EQ(link.transfer(0, 50), 150u);
    EXPECT_EQ(link.bytesMoved(), 50u);
    EXPECT_EQ(link.busyCycles(), 50u);
}

TEST(Link, TableIBandwidths)
{
    // 300 GB/s NVLink: a 4 KB page serializes in ceil(4096/300) = 14 cy.
    Link nvlink("nv", 300.0, 0);
    EXPECT_EQ(nvlink.transfer(0, 4096), 14u);
    // 32 GB/s PCIe: 4096/32 = 128 cy.
    Link pcie("pcie", 32.0, 0);
    EXPECT_EQ(pcie.transfer(0, 4096), 128u);
}

TEST(Link, SingleChannelSerializes)
{
    // A one-channel pipe is a strict queue: the second payload waits
    // for the first even though both arrive at once.
    Link port("p", 1.0, 0, /*channels=*/1);
    EXPECT_EQ(port.transfer(0, 100), 100u);
    EXPECT_EQ(port.transfer(0, 100), 200u);
}

TEST(Factory, BuildsEveryKind)
{
    for (TopologyKind kind : kAllTopologyKinds) {
        Topology fabric(kind, 4);
        EXPECT_EQ(fabric.kind(), kind);
        EXPECT_EQ(fabric.numGpus(), 4u);
        EXPECT_STREQ(topologyKindName(fabric.kind()),
                     topologyKindName(kind));
    }
    EXPECT_EQ(topologyKindFromName("Ring"), TopologyKind::kRing);
    EXPECT_EQ(topologyKindFromName("bogus"), std::nullopt);
}

TEST(AllToAll, GpuToGpuUsesNvlinkLatency)
{
    Topology fabric(TopologyKind::kAllToAll, 4);
    const sim::Cycle done = fabric.transfer(0, 0, 1, 4096);
    // 14 cycles serialization + 700 NVLink latency.
    EXPECT_EQ(done, 714u);
    EXPECT_EQ(fabric.flightLatency(0, 1), 700u);
}

TEST(AllToAll, HostTransfersUsePcie)
{
    Topology fabric(TopologyKind::kAllToAll, 2);
    EXPECT_EQ(fabric.transfer(0, sim::kHostId, 0, 4096), 1128u);
    EXPECT_EQ(fabric.transfer(0, 0, sim::kHostId, 4096), 1128u);
    EXPECT_EQ(fabric.flightLatency(sim::kHostId, 1), 1000u);
    EXPECT_EQ(fabric.pcieBytes(), 8192u);
}

TEST(AllToAll, MessagesAreLatencyOnly)
{
    Topology fabric(TopologyKind::kAllToAll, 2);
    // Control messages never queue behind bulk DMAs.
    fabric.transfer(0, 0, 1, 1 << 20);  // big DMA
    EXPECT_EQ(fabric.message(0, 0, 1), 700u);
    EXPECT_EQ(fabric.message(0, 0, sim::kHostId), 1000u);
    EXPECT_EQ(fabric.messages(), 2u);
}

TEST(AllToAll, MessageByteAccounting)
{
    Topology fabric(TopologyKind::kAllToAll, 2);
    // Default control packet is 64 bytes; explicit sizes accumulate.
    fabric.message(0, 0, 1);
    fabric.message(0, 1, 0, 32);
    EXPECT_EQ(fabric.messages(), 2u);
    EXPECT_EQ(fabric.messageBytes(), 96u);
}

TEST(AllToAll, NvlinkByteAccounting)
{
    Topology fabric(TopologyKind::kAllToAll, 2);
    fabric.transfer(0, 0, 1, 1000);
    EXPECT_EQ(fabric.nvlinkBytes(), 1000u);  // egress side accounting
}

TEST(AllToAll, LinkStatsEnumeratesPorts)
{
    Topology fabric(TopologyKind::kAllToAll, 2);
    fabric.transfer(0, 0, 1, 1000);
    const auto stats = fabric.linkStats();
    // 2 GPUs x (out + in) + pcie.up + pcie.down.
    ASSERT_EQ(stats.size(), 6u);
    std::uint64_t total = 0;
    bool saw_egress = false;
    for (const LinkStat &link : stats) {
        total += link.bytes;
        if (link.name == "gpu0.nvlink.out") {
            saw_egress = true;
            EXPECT_EQ(link.bytes, 1000u);
        }
    }
    EXPECT_TRUE(saw_egress);
    EXPECT_EQ(total, 2000u);  // egress + ingress sides both carried it
}

TEST(Ring, MultiHopComposesSerializationAndLatency)
{
    Topology fabric(TopologyKind::kRing, 4);
    // Two hops, store-and-forward: each is 14 cy serialization + 700
    // latency, and the second starts only when the first delivered.
    EXPECT_EQ(fabric.transfer(0, 0, 2, 4096), 1428u);
    EXPECT_EQ(fabric.flightLatency(0, 2), 1400u);
    // A payload crossing two segments occupies the fabric twice.
    EXPECT_EQ(fabric.nvlinkBytes(), 2u * 4096u);
}

TEST(Ring, RoutesTheShorterArc)
{
    Topology fabric(TopologyKind::kRing, 4);
    // 0 -> 3 is one counter-clockwise hop, not three clockwise ones.
    EXPECT_EQ(fabric.transfer(0, 0, 3, 4096), 714u);
    EXPECT_EQ(fabric.flightLatency(0, 3), 700u);
    const auto stats = fabric.linkStats();
    for (const LinkStat &link : stats) {
        if (link.name == "gpu0.ring.ccw") {
            EXPECT_EQ(link.bytes, 4096u);
        } else if (link.name == "gpu0.ring.cw") {
            EXPECT_EQ(link.bytes, 0u);
        }
    }
}

TEST(Ring, HostTrafficBypassesTheRing)
{
    Topology fabric(TopologyKind::kRing, 4);
    EXPECT_EQ(fabric.transfer(0, sim::kHostId, 2, 4096), 1128u);
    EXPECT_EQ(fabric.nvlinkBytes(), 0u);
    EXPECT_EQ(fabric.pcieBytes(), 4096u);
}

TEST(Ring, ChaosAndTraceApplyPerHop)
{
    Topology fabric(TopologyKind::kRing, 4);
    sim::FaultInjector injector(sim::ChaosSpec::parse("linkslow:factor=2"));
    sim::TraceRecorder trace(16);
    fabric.setInjector(&injector);
    fabric.setTrace(&trace);
    // Each segment doubles the 4 KB payload it forwards (28 + 700 cy),
    // re-deriving its bytes from the payload, so the inflation does
    // not compound across the two hops.
    EXPECT_EQ(fabric.transfer(0, 0, 2, 4096), 1456u);
    ASSERT_EQ(trace.size(), 2u);
    const sim::Cycle starts[] = {0, 728};
    for (std::size_t hop = 0; hop < 2; ++hop) {
        const sim::TraceEvent &event = trace.at(hop);
        EXPECT_STREQ(event.name, "transfer");
        EXPECT_EQ(event.track, static_cast<sim::GpuId>(hop));
        EXPECT_EQ(event.peer, static_cast<sim::GpuId>(hop + 1));
        EXPECT_EQ(event.ts, starts[hop]);
        EXPECT_EQ(event.dur, 728u);
        EXPECT_EQ(event.arg, 8192u);
    }
    std::uint64_t slow = 0;
    for (const auto &[name, value] : injector.counters()) {
        if (name == "chaos.slow_transfers")
            slow = value;
    }
    EXPECT_EQ(slow, 2u);
    EXPECT_EQ(fabric.nvlinkBytes(), 16384u);
}

TEST(Switch, TwoHopFlight)
{
    Topology fabric(TopologyKind::kSwitch, 4);
    // Egress (14 + 700), then the crossbar port (14 + 100).
    EXPECT_EQ(fabric.transfer(0, 0, 2, 4096), 828u);
    EXPECT_EQ(fabric.flightLatency(0, 2), 800u);
}

TEST(Switch, OutputPortContentionSerializes)
{
    Topology fabric(TopologyKind::kSwitch, 4);
    // Two senders target GPU 2 at the same cycle. Their egress ports
    // are independent (both deliver into the switch at 714), but GPU
    // 2's single-channel output port serializes the payloads.
    EXPECT_EQ(fabric.transfer(0, 0, 2, 4096), 828u);
    EXPECT_EQ(fabric.transfer(0, 1, 2, 4096), 842u);  // +14 cy queued
}

TEST(Switch, RadixFoldsPorts)
{
    // Ten GPUs on the eight-port crossbar: GPUs 0 and 8 share port 0.
    Topology fabric(TopologyKind::kSwitch, 10);
    // Different destinations, same port: the second transfer still
    // queues.
    EXPECT_EQ(fabric.transfer(0, 1, 0, 4096), 828u);
    EXPECT_EQ(fabric.transfer(0, 3, 8, 4096), 842u);
}

TEST(Chiplet, LocalRemoteAsymmetry)
{
    Topology fabric(TopologyKind::kChiplet, 4);
    // Intra-chiplet (0 -> 1): wide parallel ports, 7 + 200.
    const sim::Cycle local = fabric.transfer(0, 0, 1, 4096);
    EXPECT_EQ(local, 207u);
    // Cross-interposer (0 -> 2): out (207), narrow bridge (41 + 1200),
    // then the remote ingress port (7 + 200).
    const sim::Cycle remote = fabric.transfer(0, 0, 2, 4096);
    EXPECT_EQ(remote, 1655u);
    EXPECT_GT(remote, 5 * local);
    EXPECT_EQ(fabric.flightLatency(0, 1), 200u);
    EXPECT_EQ(fabric.flightLatency(0, 2), 1600u);
}

TEST(Chiplet, BridgeCountsOnlyCrossTraffic)
{
    Topology fabric(TopologyKind::kChiplet, 4);
    fabric.transfer(0, 0, 1, 1000);  // local
    fabric.transfer(0, 0, 2, 2000);  // crosses chiplet0's bridge
    for (const LinkStat &link : fabric.linkStats()) {
        if (link.name == "chiplet0.xbar.out") {
            EXPECT_EQ(link.bytes, 2000u);
        } else if (link.name == "chiplet1.xbar.out") {
            EXPECT_EQ(link.bytes, 0u);
        }
    }
}

/** Property sweep: transfer time is monotone in size for every pair. */
class TopologyPairs
    : public ::testing::TestWithParam<
          std::tuple<TopologyKind, std::pair<sim::GpuId, sim::GpuId>>>
{
};

TEST_P(TopologyPairs, MonotoneInSize)
{
    const TopologyKind kind = std::get<0>(GetParam());
    const auto [src, dst] = std::get<1>(GetParam());
    sim::Cycle prev = 0;
    for (std::uint64_t bytes : {64ull, 4096ull, 65536ull}) {
        Topology fabric(kind, 4);
        const sim::Cycle t = fabric.transfer(0, src, dst, bytes);
        EXPECT_GE(t, prev);
        prev = t;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, TopologyPairs,
    ::testing::Combine(
        ::testing::ValuesIn(kAllTopologyKinds),
        ::testing::Values(std::make_pair(0, 1), std::make_pair(3, 0),
                          std::make_pair(sim::kHostId, 2),
                          std::make_pair(2, sim::kHostId))));

}  // namespace
}  // namespace grit::ic
