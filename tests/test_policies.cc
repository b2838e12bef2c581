/** @file Unit tests for the uniform placement policies and the scheme
 *  decision matrix (Table III). */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/scheme_decision.h"
#include "policy/uniform.h"
#include "test_util.h"

namespace grit::policy {
namespace {

FaultInfo
faultAt(sim::GpuId gpu, sim::PageId page, bool write, bool cold)
{
    FaultInfo info;
    info.gpu = gpu;
    info.page = page;
    info.write = write;
    info.coldTouch = cold;
    info.owner = cold ? sim::kHostId : 0;
    return info;
}

TEST(OnTouchPolicy, AlwaysMigrates)
{
    test::MiniSystem sys;
    UniformPolicy policy(*sys.driver, kOnTouchRule);
    EXPECT_EQ(policy.onFault(faultAt(1, 5, false, false), 0).action,
              FaultAction::kMigrate);
    EXPECT_EQ(policy.onFault(faultAt(1, 5, true, true), 0).action,
              FaultAction::kMigrate);
    EXPECT_EQ(policy.schemeOf(5), mem::Scheme::kOnTouch);
    EXPECT_FALSE(policy.countsRemote(5));
}

TEST(AccessCounterPolicy, MapsRemoteAndCounts)
{
    test::MiniSystem sys;
    UniformPolicy policy(*sys.driver, kAccessCounterRule);
    EXPECT_EQ(policy.onFault(faultAt(1, 5, false, true), 0).action,
              FaultAction::kMapRemote);
    EXPECT_EQ(policy.onFault(faultAt(1, 5, false, false), 0).action,
              FaultAction::kMapRemote);
    EXPECT_TRUE(policy.countsRemote(5));
    EXPECT_EQ(policy.schemeOf(5), mem::Scheme::kAccessCounter);
}

TEST(DuplicationPolicy, AlwaysDuplicates)
{
    test::MiniSystem sys;
    UniformPolicy policy(*sys.driver, kDuplicationRule);
    EXPECT_EQ(policy.onFault(faultAt(1, 5, false, true), 0).action,
              FaultAction::kDuplicate);
    EXPECT_EQ(policy.onFault(faultAt(1, 5, false, false), 0).action,
              FaultAction::kDuplicate);
    EXPECT_EQ(policy.onFault(faultAt(1, 5, true, false), 0).action,
              FaultAction::kDuplicate);  // driver turns write into collapse
    EXPECT_EQ(policy.schemeOf(5), mem::Scheme::kDuplication);
    EXPECT_FALSE(policy.countsRemote(5));
}

TEST(FirstTouchPolicy, PinsOnColdThenPeerAccess)
{
    test::MiniSystem sys;
    UniformPolicy policy(*sys.driver, kFirstTouchRule);
    EXPECT_EQ(policy.onFault(faultAt(0, 5, false, true), 0).action,
              FaultAction::kMigrate);
    EXPECT_EQ(policy.onFault(faultAt(1, 5, false, false), 0).action,
              FaultAction::kMapRemote);
    EXPECT_FALSE(policy.countsRemote(5));  // pinned forever
    EXPECT_EQ(policy.schemeOf(5), mem::Scheme::kAccessCounter);
}

TEST(IdealPolicy, ColdPaysThenFree)
{
    test::MiniSystem sys;
    UniformPolicy policy(*sys.driver, kIdealRule);
    EXPECT_EQ(policy.onFault(faultAt(0, 5, false, true), 0).action,
              FaultAction::kMigrate);
    EXPECT_EQ(policy.onFault(faultAt(1, 5, true, false), 0).action,
              FaultAction::kIdealLocal);
    EXPECT_EQ(policy.schemeOf(5), mem::Scheme::kNone);
    EXPECT_FALSE(policy.countsRemote(5));
}

TEST(PolicyDefaults, NoOverheadNoAccessHook)
{
    test::MiniSystem sys;
    for (const UniformRule &rule :
         {kOnTouchRule, kAccessCounterRule, kDuplicationRule,
          kFirstTouchRule, kIdealRule}) {
        UniformPolicy policy(*sys.driver, rule);
        EXPECT_EQ(policy.onFault(faultAt(0, 1, false, true), 0).overhead,
                  0u);
        EXPECT_EQ(policy.onFault(faultAt(1, 1, true, false), 0).overhead,
                  0u);
        EXPECT_EQ(policy.onAccess(0, 1, true, true, 0), 0u);
    }
}

// ------------------------------------------------------- Scheme decision

TEST(SchemeDecision, Figure13Rule)
{
    using core::decideScheme;
    EXPECT_EQ(decideScheme(false), mem::Scheme::kDuplication);
    EXPECT_EQ(decideScheme(true), mem::Scheme::kAccessCounter);
}

TEST(SchemeDecision, TableIIIPreferences)
{
    using core::preferredSchemes;
    using core::SharingClass;
    using mem::Scheme;

    // Read row: private/PC-shared prefer OT (duplication acceptable);
    // all-shared prefers duplication.
    auto read_private =
        preferredSchemes(SharingClass::kPrivate, false);
    EXPECT_EQ(read_private.front(), Scheme::kOnTouch);
    EXPECT_NE(std::find(read_private.begin(), read_private.end(),
                        Scheme::kDuplication),
              read_private.end());
    EXPECT_EQ(preferredSchemes(SharingClass::kAllShared, false),
              std::vector<Scheme>{Scheme::kDuplication});

    // Read-write row: private -> OT; PC-shared -> OT/AC;
    // all-shared -> AC.
    EXPECT_EQ(preferredSchemes(SharingClass::kPrivate, true),
              std::vector<Scheme>{Scheme::kOnTouch});
    auto rw_pc = preferredSchemes(SharingClass::kPcShared, true);
    EXPECT_EQ(rw_pc.front(), Scheme::kOnTouch);
    EXPECT_NE(std::find(rw_pc.begin(), rw_pc.end(),
                        Scheme::kAccessCounter),
              rw_pc.end());
    EXPECT_EQ(preferredSchemes(SharingClass::kAllShared, true),
              std::vector<Scheme>{Scheme::kAccessCounter});
}

TEST(SchemeDecision, SharingClassNames)
{
    using core::SharingClass;
    EXPECT_STREQ(core::sharingClassName(SharingClass::kPrivate),
                 "private");
    EXPECT_STREQ(core::sharingClassName(SharingClass::kPcShared),
                 "pc-shared");
    EXPECT_STREQ(core::sharingClassName(SharingClass::kAllShared),
                 "all-shared");
}

}  // namespace
}  // namespace grit::policy
