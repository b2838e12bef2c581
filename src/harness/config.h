/**
 * @file
 * Top-level system configuration: the values a run varies (policy,
 * GPU count, page geometry, the swept model parameters, feature and
 * reporting flags, watchdogs). Every other Table I value is a named
 * constant next to the code that reads it.
 */

#ifndef GRIT_HARNESS_CONFIG_H_
#define GRIT_HARNESS_CONFIG_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/grit_policy.h"
#include "interconnect/topology.h"
#include "mem/page_geometry.h"
#include "simcore/fault_injector.h"
#include "simcore/sim_error.h"
#include "simcore/types.h"
#include "uvm/uvm_driver.h"

namespace grit::sim {
class TraceRecorder;
}  // namespace grit::sim

namespace grit::harness {

/** Selectable placement policies / systems. */
enum class PolicyKind {
    kOnTouch,
    kAccessCounter,
    kDuplication,
    kFirstTouch,
    kIdeal,
    kGrit,
    kGriffinDpc,
    kGps,
};

/** Printable policy name (matches the paper's legends). */
const char *policyKindName(PolicyKind kind);

/** Parse a policy name (case-insensitive; e.g. "grit", "on-touch"). */
std::optional<PolicyKind> policyKindFromName(const std::string &name);

/**
 * The most GPUs a config may hold: eight times the largest count any
 * figure runs. The fabric's forwarding table grows with its square.
 */
inline constexpr unsigned kMaxGpus = 64;

/** Complete configuration of one simulated system. */
struct SystemConfig
{
    unsigned numGpus = 4;
    /**
     * The single source of page-size truth (docs/PAGESIZE.md): the base
     * translation granule (4 KB default; raise it for fixed-large-page
     * studies) plus the optional dynamic huge-page promote/splinter
     * mode. Passed down to the GPUs and the UVM driver by reference —
     * there are deliberately no per-layer pageSize copies to drift.
     */
    mem::PageGeometry geometry{};
    /**
     * Aggregate GPU memory as a fraction of the workload footprint
     * (Table I: 70 %), divided evenly among the GPUs. Zero disables
     * the capacity limit.
     */
    double memoryFraction = 0.70;

    PolicyKind policy = PolicyKind::kOnTouch;

    /**
     * Remote accesses to a 64 KB group that trigger the hardware
     * access counter's migration (Table I: 256; the counter-threshold
     * ablation sweeps it).
     */
    unsigned counterThreshold = 256;

    /** ACUD (Fig. 26) and Trans-FW (Fig. 28). */
    uvm::UvmConfig uvm{};
    /**
     * Interconnect model: all-to-all (Table I's fabric) by default;
     * ring, switch or chiplet (docs/TOPOLOGY.md). The kind is the
     * fabric's only setting; its link parameters are constants.
     */
    ic::TopologyKind topology = ic::TopologyKind::kAllToAll;
    /** GRIT's fault threshold, PA-Cache and NAP (Figs. 20 and 21). */
    core::GritConfig grit{};

    /** Attach the tree-based neighborhood prefetcher (Section VI-E). */
    bool prefetch = false;

    /**
     * Run a lane's next access inline inside its predecessor's event
     * whenever no other pending event could interleave (strictly
     * earlier next-event timestamp). Event-queue pressure then scales
     * with page transitions — fault storms and drain tails — instead of
     * raw accesses. Results are bit-identical either way; the flag
     * exists so tests can prove that.
     */
    bool batchAccesses = true;

    /**
     * Page-event timeline recorder (Chrome trace export); nullptr
     * disables tracing. Non-owning; the recorder is not thread-safe, so
     * never share one across concurrently running simulators.
     */
    sim::TraceRecorder *trace = nullptr;

    /**
     * Window width of the per-run event timeline ("timeline" in the
     * JSON); 0 samples no timeline.
     */
    sim::Cycle timelineIntervalCycles = 0;

    /**
     * Chaos fault-injection spec (see sim::ChaosSpec::parse and
     * docs/ROBUSTNESS.md). Held by value so every Simulator builds its
     * own injector — chaos runs stay deterministic under any
     * experiment-engine thread count. Default-constructed = inert.
     */
    sim::ChaosSpec chaos{};

    /**
     * Audit the cross-layer invariants (sim::InvariantAuditor) once the
     * run has drained.
     */
    bool audit = false;

    /**
     * Export per-link fabric accounting (`fabric.*` counters: bytes
     * and busy cycles per link, message/control-plane totals) into the
     * run's counter set. Off by default so classic documents — and the
     * determinism goldens — stay byte-identical.
     */
    bool fabricStats = false;

    /**
     * Export translation accounting (`tlb.*` hit/miss aggregates and
     * `pwc.*` walk-cache totals) plus the `promote.*`/`splinter.*`
     * rows even when zero. Off by default for the same golden-identity
     * reason as fabricStats; the fig_pagesize sweep turns it on.
     */
    bool pageSizeStats = false;

    /**
     * Per-run wall-clock deadline in seconds; 0 disables. Polled as a
     * cooperative EventQueue cancel (never an abort): a run that
     * exceeds it stops between events with a structured kDeadline
     * diagnostic, so a hung run becomes a quarantinable timeout.
     */
    double wallDeadlineSec = 0.0;

    /**
     * Per-run executed-event budget; 0 disables. Reuses the event
     * queue's limit machinery but reports kDeadline (a per-run
     * watchdog) instead of kEventLimit (the global safety valve).
     */
    std::uint64_t eventBudget = 0;

    /**
     * External cooperative-cancel flag, e.g. set by a SIGINT/SIGTERM
     * handler; a nonzero value requests drain and the run stops with a
     * kInterrupted diagnostic naming the signal. Non-owning; must
     * outlive the run.
     */
    const std::atomic<int> *cancelFlag = nullptr;

    /**
     * Check every knob combination this config can express.
     * @return all violations (empty when the config is usable);
     *         Simulator construction throws on a non-empty result.
     */
    std::vector<sim::SimError> validate() const;
};

/** Table I defaults for @p policy and @p num_gpus. */
SystemConfig makeConfig(PolicyKind policy, unsigned num_gpus = 4);

}  // namespace grit::harness

#endif  // GRIT_HARNESS_CONFIG_H_
