#include "baselines/griffin.h"

#include <algorithm>
#include <cassert>

#include "uvm/uvm_driver.h"

namespace grit::baselines {

GriffinDpcPolicy::GriffinDpcPolicy(uvm::UvmDriver &driver,
                                   const GriffinConfig &config)
    : PlacementPolicy(driver), config_(config)
{
    assert(config_.intervalCycles > 0);
    nextBoundary_ = config_.intervalCycles;
}

policy::FaultDecision
GriffinDpcPolicy::onFault(const policy::FaultInfo &info, sim::Cycle now)
{
    (void)now;
    // Cold faults place the page on the toucher (the driver handles the
    // host->GPU path); afterwards DPC works through remote mappings and
    // migrates only at classification boundaries.
    return {info.coldTouch ? policy::FaultAction::kMigrate
                           : policy::FaultAction::kMapRemote,
            0};
}

sim::Cycle
GriffinDpcPolicy::onAccess(sim::GpuId gpu, sim::PageId page, bool write,
                           bool remote, sim::Cycle now)
{
    (void)write;
    (void)remote;

    auto &row = counts_[page];
    if (row.size() < driver_.numGpus())
        row.resize(driver_.numGpus(), 0);
    row[static_cast<std::size_t>(gpu)] += 1;

    if (now >= nextBoundary_)
        processInterval(now);
    return 0;
}

void
GriffinDpcPolicy::processInterval(sim::Cycle now)
{
    ++intervals_;

    // Each GPU ships its access profile to the host over PCIe — the
    // CPU-GPU communication overhead GRIT's host-side tracking avoids.
    const std::uint64_t profile_bytes =
        counts_.size() * config_.profileBytesPerPage;
    if (profile_bytes > 0) {
        for (unsigned g = 0; g < driver_.numGpus(); ++g) {
            driver_.fabric().transfer(now, static_cast<sim::GpuId>(g),
                                       sim::kHostId, profile_bytes);
        }
    }

    for (const auto &[page, row] : counts_) {
        const auto dominant_it = std::max_element(row.begin(), row.end());
        const std::uint32_t dominant_count = *dominant_it;
        if (dominant_count < config_.minAccesses)
            continue;
        const sim::GpuId dominant = static_cast<sim::GpuId>(
            std::distance(row.begin(), dominant_it));
        const sim::GpuId owner = driver_.directory().ownerOf(page);
        if (owner == dominant || !driver_.directory().touched(page))
            continue;
        const std::uint32_t owner_count =
            owner >= 0 ? row[static_cast<std::size_t>(owner)] : 0;
        if (static_cast<double>(dominant_count) <
            config_.dominanceRatio * static_cast<double>(owner_count))
            continue;
        driver_.migratePage(page, dominant, now,
                             stats::LatencyKind::kPageMigration);
        ++migrations_;
    }

    counts_.clear();
    while (nextBoundary_ <= now)
        nextBoundary_ += config_.intervalCycles;
}

}  // namespace grit::baselines
