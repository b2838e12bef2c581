/** @file Unit tests for the harness: configuration defaults (Table I),
 *  table formatting, and experiment helpers. */

#include <gtest/gtest.h>

#include "harness/config.h"
#include "harness/experiment.h"
#include "harness/table.h"

namespace grit::harness {
namespace {

TEST(SystemConfig, TableIDefaults)
{
    const SystemConfig config = makeConfig(PolicyKind::kGrit, 4);
    EXPECT_EQ(config.numGpus, 4u);
    EXPECT_EQ(config.geometry.baseSize, sim::kPageSize4K);
    EXPECT_FALSE(config.geometry.hugePages);
    EXPECT_DOUBLE_EQ(config.memoryFraction, 0.70);

    // Table I rows.
    EXPECT_EQ(gpu::GpuConfig{}.lanes, 64u);       // 64 CUs
    EXPECT_EQ(gpu::kL1TlbEntries, 32u);           // L1 TLB
    EXPECT_EQ(gpu::kL1TlbWays, 32u);
    EXPECT_EQ(gpu::kL1TlbLatency, 1u);
    EXPECT_EQ(gpu::kL2TlbEntries, 512u);          // L2 TLB
    EXPECT_EQ(gpu::kL2TlbWays, 16u);
    EXPECT_EQ(gpu::kL2TlbLatency, 10u);
    EXPECT_EQ(gpu::kWalkers, 8u);                 // 8 walkers
    EXPECT_EQ(gpu::kWalkLevelLatency, 100u);      // 100 cy/level
    EXPECT_EQ(gpu::kWalkCacheEntries, 128u);      // walk cache
    EXPECT_EQ(gpu::kL2CacheBytes, 256u * 1024u);  // 256 KB L2
    EXPECT_EQ(gpu::kL2CacheWays, 16u);
    EXPECT_EQ(gpu::kL2CacheLatency, 40u);
    EXPECT_DOUBLE_EQ(gpu::kDramGBs, 900.0);       // HBM
    EXPECT_EQ(gpu::kDramLatency, 200u);
    EXPECT_EQ(config.counterThreshold, 256u);     // counters
    // NVLink-v2 mesh + PCIe-v4 host link (AllToAll.* pins the timing).
    EXPECT_EQ(config.topology, ic::TopologyKind::kAllToAll);

    // UVM driver costs (Section II-B).
    EXPECT_EQ(uvm::kServiceCycles, 1500u);
    EXPECT_EQ(uvm::kCollapseServiceCycles, 6000u);
    EXPECT_EQ(uvm::kServers, 16u);
    EXPECT_EQ(uvm::kRemapCycles, 300u);
    EXPECT_EQ(uvm::kDrainCycles, 1500u);
    EXPECT_EQ(uvm::kDrainCyclesAcud, 150u);
    EXPECT_EQ(uvm::kTransFwCycles, 250u);
    EXPECT_EQ(uvm::kInvalidatePteCycles, 100u);
    EXPECT_DOUBLE_EQ(uvm::kHostMemGBs, 100.0);
    EXPECT_EQ(uvm::kHostMemAccessCycles, 150u);
    EXPECT_EQ(uvm::kMessageBytes, 64u);
    EXPECT_EQ(uvm::kPromoteCycles, 1200u);
    EXPECT_EQ(uvm::kSplinterCycles, 1800u);
    EXPECT_FALSE(config.uvm.acud);
    EXPECT_FALSE(config.uvm.transFw);

    // GRIT defaults (Section V).
    EXPECT_EQ(config.grit.faultThreshold, 4u);
    EXPECT_TRUE(config.grit.paCacheEnabled);
    EXPECT_TRUE(config.grit.napEnabled);
    EXPECT_EQ(core::kPaCacheEntries, 64u);
    EXPECT_EQ(core::kPaCacheWays, 4u);
    EXPECT_EQ(core::kPaCacheHitCycles, 4u);
    EXPECT_EQ(core::kPaHiddenSlackCycles, 150u);
    EXPECT_EQ(core::kPaTableAccessesOnMiss, 2u);
    EXPECT_EQ(core::kPaEntryBytes, 8u);
}

TEST(PolicyKindNames, RoundTrip)
{
    for (PolicyKind kind :
         {PolicyKind::kOnTouch, PolicyKind::kAccessCounter,
          PolicyKind::kDuplication, PolicyKind::kFirstTouch,
          PolicyKind::kIdeal, PolicyKind::kGrit, PolicyKind::kGriffinDpc,
          PolicyKind::kGps}) {
        EXPECT_EQ(policyKindFromName(policyKindName(kind)), kind);
    }
    EXPECT_EQ(policyKindFromName("GRIT"), PolicyKind::kGrit);
    EXPECT_FALSE(policyKindFromName("bogus").has_value());
}

TEST(TextTable, AlignsColumns)
{
    TextTable table({"a", "long-header"});
    table.addRow({"xx", "1"});
    table.addRow({"y"});  // short rows pad
    const std::string out = table.str();
    EXPECT_NE(out.find("a"), std::string::npos);
    EXPECT_NE(out.find("long-header"), std::string::npos);
    EXPECT_NE(out.find("xx"), std::string::npos);
    // Header rule present.
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TextTable, Formatting)
{
    EXPECT_EQ(TextTable::fmt(1.234567), "1.23");
    EXPECT_EQ(TextTable::fmt(1.2, 0), "1");
    EXPECT_EQ(TextTable::pct(12.34), "+12.3%");
    EXPECT_EQ(TextTable::pct(-3.21), "-3.2%");
}

TEST(Experiment, SpeedupOver)
{
    RunResult base;
    base.cycles = 200;
    RunResult test;
    test.cycles = 100;
    EXPECT_DOUBLE_EQ(speedupOver(base, test), 2.0);
}

TEST(Experiment, SpeedupOverZeroCyclesThrows)
{
    RunResult base;
    base.cycles = 200;
    RunResult never_ran;  // cycles stays 0
    EXPECT_THROW(speedupOver(base, never_ran), std::invalid_argument);
}

TEST(Experiment, MatrixHelpers)
{
    ResultMatrix matrix;
    matrix["A"]["base"].cycles = 100;
    matrix["A"]["test"].cycles = 50;
    matrix["B"]["base"].cycles = 100;
    matrix["B"]["test"].cycles = 100;

    const auto speedups = speedupsVs(matrix, "base", "test");
    EXPECT_DOUBLE_EQ(speedups.at("A"), 2.0);
    EXPECT_DOUBLE_EQ(speedups.at("B"), 1.0);
    // Mean improvement: ((2.0 - 1) + (1.0 - 1)) / 2 = 50 %.
    EXPECT_NEAR(meanImprovementPct(matrix, "base", "test"), 50.0, 1e-9);
}

TEST(Experiment, OversubscriptionRate)
{
    RunResult r;
    r.accesses = 2000;
    r.evictions = 10;
    EXPECT_DOUBLE_EQ(r.oversubscriptionRate(), 5.0);
    RunResult empty;
    EXPECT_DOUBLE_EQ(empty.oversubscriptionRate(), 0.0);
}

}  // namespace
}  // namespace grit::harness
