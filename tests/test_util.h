/**
 * @file
 * Shared fixtures for driver-level tests: a miniature multi-GPU system
 * (fabric + GPUs + UVM driver + stats) with small, deterministic
 * geometry.
 */

#ifndef GRIT_TESTS_TEST_UTIL_H_
#define GRIT_TESTS_TEST_UTIL_H_

#include <memory>
#include <utility>
#include <vector>

#include "gpu/gpu.h"
#include "interconnect/topology.h"
#include "mem/page_geometry.h"
#include "policy/uniform.h"
#include "stats/counters.h"
#include "stats/latency_breakdown.h"
#include "uvm/uvm_driver.h"

namespace grit::test {

/** A small fully wired system for unit-testing UVM mechanics. */
class MiniSystem
{
  public:
    /**
     * @param num_gpus       GPUs to build.
     * @param capacity_pages per-GPU DRAM frames (0 = unlimited).
     */
    explicit MiniSystem(unsigned num_gpus = 2,
                        std::uint64_t capacity_pages = 0,
                        uvm::UvmConfig uvm_config = {},
                        mem::PageGeometry geo = {})
        : geometry(geo),
          fabric(std::make_unique<ic::Topology>(
              ic::TopologyKind::kAllToAll, num_gpus))
    {
        gpu::GpuConfig gpu_config;
        gpu_config.lanes = 4;  // keep L1 TLB count small
        gpu_config.dramCapacityPages = capacity_pages;
        std::vector<gpu::Gpu *> views;
        for (unsigned g = 0; g < num_gpus; ++g) {
            gpus.push_back(std::make_unique<gpu::Gpu>(
                static_cast<sim::GpuId>(g), gpu_config, geometry));
            views.push_back(gpus.back().get());
        }
        driver = std::make_unique<uvm::UvmDriver>(
            uvm_config, *fabric, views, stats, breakdown, geometry);
    }

    /**
     * Build a @p P on the driver from @p args, select it, and keep it
     * alive; returns the policy for tests that drive its hooks.
     */
    template <typename P, typename... Args>
    P &
    usePolicy(Args &&...args)
    {
        auto p = std::make_unique<P>(*driver, std::forward<Args>(args)...);
        P &built = *p;
        policy = std::move(p);
        driver->setPolicy(policy.get());
        return built;
    }

    gpu::Gpu &gpu(unsigned g) { return *gpus[g]; }

    /** Declared before gpus/driver: both hold references into it. */
    mem::PageGeometry geometry;
    stats::StatSet stats;
    stats::LatencyBreakdown breakdown;
    std::unique_ptr<ic::Topology> fabric;
    std::vector<std::unique_ptr<gpu::Gpu>> gpus;
    std::unique_ptr<uvm::UvmDriver> driver;
    std::unique_ptr<policy::PlacementPolicy> policy;
};

}  // namespace grit::test

#endif  // GRIT_TESTS_TEST_UTIL_H_
