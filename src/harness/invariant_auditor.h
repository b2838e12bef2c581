/**
 * @file
 * Cross-layer invariant audits over a running simulation.
 *
 * The auditor walks the UVM driver's replica directory, every GPU's
 * page table, DRAM capacity manager, and TLBs, and checks that the
 * five cooperating layers agree on page residency and translation
 * state (docs/ROBUSTNESS.md lists the invariants). Audits are pure
 * reads: they never create directory entries, touch LRU state, or
 * advance simulated time. Violations come back as structured
 * SimErrors (ErrorCode::kInvariant) naming the page and layers that
 * disagree.
 *
 * Lives in the harness layer (it must see uvm + gpu + mem at once)
 * but in namespace grit::sim, as it is simulator infrastructure
 * rather than experiment plumbing.
 */

#ifndef GRIT_HARNESS_INVARIANT_AUDITOR_H_
#define GRIT_HARNESS_INVARIANT_AUDITOR_H_

#include <cstdint>
#include <vector>

#include "harness/config.h"
#include "simcore/sim_error.h"
#include "simcore/types.h"

namespace grit::sim {

/** End-of-run consistency checker. */
class InvariantAuditor
{
  public:
    /**
     * @param driver audited driver (not owned; must outlive this).
     * @param policy the policy steering @p driver. The Ideal oracle
     *        installs local PTEs without moving data, so its page tables
     *        intentionally disagree with residency state.
     */
    InvariantAuditor(uvm::UvmDriver &driver, harness::PolicyKind policy)
        : driver_(driver), ideal_(policy == harness::PolicyKind::kIdeal)
    {
    }

    /**
     * Run every invariant check against the current state.
     * @return all violations found (empty when the layers agree).
     */
    std::vector<SimError> audit();

    /** Audits run so far. */
    std::uint64_t audits() const { return audits_; }

    /** Total violations found across all audits. */
    std::uint64_t violations() const { return violations_; }

  private:
    void auditDirectory(std::vector<SimError> &out) const;
    void auditPageTables(std::vector<SimError> &out) const;
    void auditDramAccounting(std::vector<SimError> &out) const;
    void auditTlbCoherence(std::vector<SimError> &out) const;
    void auditRegions(std::vector<SimError> &out) const;

    uvm::UvmDriver &driver_;
    /** Skip the local-PTE residency checks (the Ideal oracle). */
    bool ideal_;
    std::uint64_t audits_ = 0;
    std::uint64_t violations_ = 0;
};

}  // namespace grit::sim

#endif  // GRIT_HARNESS_INVARIANT_AUDITOR_H_
