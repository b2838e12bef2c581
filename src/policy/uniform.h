/**
 * @file
 * The uniform placement schemes as data.
 *
 * Each uniform baseline is GRIT's scheme-to-action map with the scheme
 * held fixed for every page, so one UniformPolicy runs all of them
 * from a four-field UniformRule:
 *  - on-touch (Section II-B1): every fault migrates the page to the
 *    requester; the paper's baseline.
 *  - access-counter (Section II-B2): faults establish remote mappings;
 *    the GPUs' hardware counters (64 KB groups, threshold 256) migrate
 *    a group through UvmDriver::counterMigration once it is accessed
 *    remotely often enough.
 *  - duplication (Section II-B3): read faults replicate the page
 *    locally; the driver turns a write into a collapse of every
 *    replica, and protection faults collapse regardless of the action.
 *  - first-touch (Section VI-D): the page is pinned on the GPU that
 *    touches it first; every other GPU uses peer load/store over a
 *    remote translation, with no counters and no further migration.
 *  - ideal (Figure 1): after the cold touch every access finds the
 *    page locally at zero NUMA cost. Not realizable; the optimization
 *    ceiling.
 */

#ifndef GRIT_POLICY_UNIFORM_H_
#define GRIT_POLICY_UNIFORM_H_

#include "policy/policy.h"

namespace grit::policy {

/** One uniform scheme: the same answers for every page. */
struct UniformRule
{
    /** Action on a page's first fault anywhere (host -> GPU placement). */
    FaultAction cold;
    /** Action on every later fault. */
    FaultAction later;
    /** Scheme reported for the Figure 19 breakdown. */
    mem::Scheme scheme;
    /** Remote accesses feed the hardware access counters. */
    bool countsRemote;
};

inline constexpr UniformRule kOnTouchRule{
    FaultAction::kMigrate, FaultAction::kMigrate, mem::Scheme::kOnTouch,
    false};
inline constexpr UniformRule kAccessCounterRule{
    FaultAction::kMapRemote, FaultAction::kMapRemote,
    mem::Scheme::kAccessCounter, true};
inline constexpr UniformRule kDuplicationRule{
    FaultAction::kDuplicate, FaultAction::kDuplicate,
    mem::Scheme::kDuplication, false};
/** First-touch is not a Table IV scheme; it reports the closest one
 *  (remote access without migration). */
inline constexpr UniformRule kFirstTouchRule{
    FaultAction::kMigrate, FaultAction::kMapRemote,
    mem::Scheme::kAccessCounter, false};
/** The Ideal oracle keeps the cold placement; everything after is
 *  free and local. */
inline constexpr UniformRule kIdealRule{
    FaultAction::kMigrate, FaultAction::kIdealLocal, mem::Scheme::kNone,
    false};

/** A uniform scheme (Section II-B) run from its rule. */
class UniformPolicy final : public PlacementPolicy
{
  public:
    UniformPolicy(uvm::UvmDriver &driver, const UniformRule &rule)
        : PlacementPolicy(driver), rule_(rule)
    {
    }

    FaultDecision
    onFault(const FaultInfo &info, sim::Cycle now) override
    {
        (void)now;
        return {info.coldTouch ? rule_.cold : rule_.later, 0};
    }

    bool
    countsRemote(sim::PageId page) const override
    {
        (void)page;
        return rule_.countsRemote;
    }

    mem::Scheme
    schemeOf(sim::PageId page) const override
    {
        (void)page;
        return rule_.scheme;
    }

  private:
    UniformRule rule_;
};

}  // namespace grit::policy

#endif  // GRIT_POLICY_UNIFORM_H_
