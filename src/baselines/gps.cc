#include "baselines/gps.h"

#include <algorithm>

#include "uvm/uvm_driver.h"

namespace grit::baselines {

namespace {

/** Payload of one broadcast store: one cache line. */
constexpr std::uint64_t kStoreBytes = sim::kLineSize;

}  // namespace

GpsPolicy::GpsPolicy(uvm::UvmDriver &driver)
    : PlacementPolicy(driver),
      storeBroadcastsCtr_(driver.stats(), "gps.store_broadcasts")
{
}

policy::FaultDecision
GpsPolicy::onFault(const policy::FaultInfo &info, sim::Cycle now)
{
    (void)now;
    // First touch places the page; every later access subscribes.
    return {info.coldTouch ? policy::FaultAction::kMigrate
                           : policy::FaultAction::kSubscribe,
            0};
}

sim::Cycle
GpsPolicy::onAccess(sim::GpuId gpu, sim::PageId page, bool write,
                    bool remote, sim::Cycle now)
{
    (void)remote;
    if (!write)
        return 0;

    const uvm::PageInfo *info = driver_.directory().find(page);
    if (info == nullptr || info->replicas.empty())
        return 0;

    // Proactively push the store to every other copy of the page. Each
    // push occupies fabric bandwidth AND one of the sender's
    // outstanding-remote-transaction slots for its flight — a store
    // storm to widely subscribed pages saturates the RDMA engine,
    // which is where GPS pays for its replication.
    gpu::Gpu &sender = driver_.gpuAt(gpu);
    sim::Cycle slot_done = now;
    auto push = [&](sim::GpuId target) {
        if (target == gpu || target < 0)
            return;
        driver_.fabric().transfer(now, gpu, target, kStoreBytes);
        const sim::Cycle flight =
            driver_.fabric().flightLatency(gpu, target);
        slot_done = std::max(
            slot_done, sender.remoteSlot(now, flight, /*to_host=*/false));
        ++broadcasts_;
    };
    push(info->owner);
    for (sim::GpuId subscriber : info->replicas)
        push(subscriber);

    storeBroadcastsCtr_.inc();
    // The store retires once every subscriber push has secured a
    // slot; under write storms this is GPS's bottleneck.
    const sim::Cycle send_overhead = slot_done - now;
    driver_.breakdown().add(stats::LatencyKind::kRemoteAccess,
                             send_overhead);
    return send_overhead;
}

}  // namespace grit::baselines
