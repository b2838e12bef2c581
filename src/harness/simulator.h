/**
 * @file
 * The end-to-end simulator: wires GPUs, fabric, UVM driver, and a
 * placement policy, then replays a workload's per-GPU access streams
 * through the full translation/fault/data path.
 *
 * Each GPU runs `lanes` concurrent access streams drawing from a shared
 * per-GPU cursor (CU work distribution); a lane that faults stalls until
 * the UVM driver resolves its page while the other lanes keep running —
 * reproducing the memory-level-parallelism loss that makes page faults
 * so expensive in real UVM systems.
 */

#ifndef GRIT_HARNESS_SIMULATOR_H_
#define GRIT_HARNESS_SIMULATOR_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness/config.h"
#include "harness/invariant_auditor.h"
#include "simcore/event_queue.h"
#include "simcore/fault_injector.h"
#include "stats/counters.h"
#include "stats/interval_sampler.h"
#include "stats/latency_breakdown.h"
#include "stats/timeline.h"
#include "workload/trace.h"
#include "workload/trace_stream.h"

namespace grit::harness {

/** Everything a run produces. */
struct RunResult
{
    /** Execution time: cycle when the last lane drained. */
    sim::Cycle cycles = 0;
    std::uint64_t accesses = 0;
    std::uint64_t localFaults = 0;
    std::uint64_t protectionFaults = 0;
    /** Fig. 18 metric: local + protection faults. */
    std::uint64_t totalFaults() const
    {
        return localFaults + protectionFaults;
    }
    /** Fig. 3 categories. */
    stats::LatencyBreakdown breakdown;
    /** Fig. 19: L2-TLB-missing accesses per governing scheme. */
    std::array<std::uint64_t, 4> schemeAccesses{};
    /** Capacity evictions across all GPUs (oversubscription metric). */
    std::uint64_t evictions = 0;
    /** Peak replica count alive at once. */
    std::uint64_t peakReplicas = 0;
    /** Full counter snapshot for detailed reporting. */
    std::vector<std::pair<std::string, std::uint64_t>> counters;

    /**
     * Per-interval event timeline (TimelineKind keys); present only
     * when SystemConfig::timelineIntervalCycles was non-zero.
     */
    std::optional<stats::IntervalSampler> timeline;

    /**
     * Invariant-audit violations (SimError::str() form, first 32);
     * populated only under SystemConfig::audit. The full count is the
     * "audit.violations" counter.
     */
    std::vector<std::string> auditFindings;

    /**
     * True when a watchdog (wall-clock deadline, event budget,
     * liveness) or a cooperative cancel truncated the run: every metric
     * above is a counters-so-far snapshot, not a completed simulation.
     * Serialized as `"partial": true` in the grit-results schema.
     */
    bool partial = false;

    /** The structured diagnostic that truncated a partial run. */
    std::optional<sim::SimError> error;

    /**
     * Discrete events the queue executed during the run. A host-side
     * cost metric (perfbench's simcore.events), not a simulated
     * quantity: deliberately NOT serialized into the grit-results
     * schema or the run journal.
     */
    std::uint64_t eventsExecuted = 0;

    /**
     * Accesses that completed inline inside a predecessor's event
     * (SystemConfig::batchAccesses): issued without their own lane-step
     * event because no other event could have interleaved. A host-side
     * throughput metric like eventsExecuted, but — unlike it —
     * serialized as "accesses_batched" in the grit-results schema and
     * the run journal (v2): the value is a pure function of the cell
     * (config + workload), so it stays byte-identical across worker
     * counts and chunk sizes. Simulation results are bit-identical
     * with batching on or off.
     */
    std::uint64_t accessesBatched = 0;

    /** Eviction pressure per thousand accesses (GPS comparison). */
    double oversubscriptionRate() const;
};

/** One simulation instance (configure, run once, read results). */
class Simulator
{
  public:
    /**
     * @param config   system configuration (Table I defaults).
     * @param workload what to replay, moved in: the metadata shell, one
     *        TraceStream per GPU (numGpus must match), and the exact
     *        per-GPU access counts. Generated workloads come from
     *        TraceCache::openWorkload, prebuilt ones from
     *        workload::streamWorkload; the simulator holds one chunk
     *        per GPU at a time.
     * @throws sim::SimException (kConfigInvalid) when
     *         config.validate() reports violations or the workload was
     *         generated for a different GPU count.
     */
    Simulator(const SystemConfig &config,
              workload::StreamedWorkload workload);
    ~Simulator();

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /**
     * Run to completion and collect results.
     *
     * Watchdogs (SystemConfig::wallDeadlineSec, eventBudget,
     * cancelFlag, the liveness watchdog, and the event-limit safety
     * valve) stop the event loop cooperatively between events. What
     * happens next depends on @p salvage_partial:
     *  - false (default): the structured diagnostic is thrown as a
     *    sim::SimException (kEventLimit / kNoProgress / kDeadline /
     *    kInterrupted);
     *  - true: the counters-so-far are still collected and returned
     *    with RunResult::partial set and RunResult::error carrying the
     *    diagnostic — the salvage path quarantined sweeps rely on.
     */
    RunResult run(bool salvage_partial = false);

    /** Components, for tests and examples. */
    uvm::UvmDriver &driver() { return *driver_; }
    gpu::Gpu &gpuAt(unsigned g) { return *gpus_[g]; }

  private:
    struct LaneAccess
    {
        sim::PageId page;
        unsigned line;
        bool write;
    };

    /**
     * Per-GPU access source: a cursor over the GPU's chunk stream,
     * decoding (page, line) on the fly.
     */
    struct GpuCursor
    {
        workload::TraceStream *stream = nullptr;
        workload::ChunkHandle chunk;   //!< chunk being consumed
        std::size_t chunkPos = 0;      //!< index into chunk->accesses
        std::uint64_t pos = 0;         //!< accesses consumed
        std::uint64_t total = 0;       //!< accesses this GPU will issue
    };

    /** Pop GPU @p g's next access into @p out; false once drained. */
    bool nextAccess(unsigned g, LaneAccess &out);

    /**
     * Issue accesses for (g, lane) starting at @p now. Consecutive
     * completions are executed inline (no lane-step event) while no
     * other pending event could interleave — see canInline().
     */
    void runLane(unsigned g, unsigned lane, sim::Cycle now);

    /**
     * True when an access completing with its successor due at
     * @p next_at may continue inline: batching is enabled and the next
     * pending event runs strictly later (same-cycle FIFO order means an
     * equal-timestamp event would have run first, so `<` is required
     * for bit-identical results).
     */
    bool canInline(sim::Cycle next_at) const;

    /** True once every GPU's access stream is fully issued. */
    bool drained() const;

    /** Self-rescheduling chaos capacity-pressure storm event. */
    void pressureStorm();

    /** Self-rescheduling chaos promotion-splinter storm event. */
    void promoteStorm();

    /** Self-rescheduling same-cycle livelock (chaos `hang` clause). */
    void hangSpin();

    /** One invariant audit; logs and collects any violations. */
    void runAudit();

    /**
     * Translate (attempt @p attempt) at cycle @p now and, when the
     * access completes, return its completion time. A fresh fault
     * (attempt 0) schedules the replay event at the fault resolution
     * time — so resource timestamps stay monotonic — and returns
     * nullopt: the replay event owns the lane from then on.
     */
    std::optional<sim::Cycle> beginAccess(unsigned g, unsigned lane,
                                          const LaneAccess &a,
                                          unsigned attempt,
                                          sim::Cycle now);

    /**
     * Data path after translation (or fault replay): access the line
     * at @p loc starting at @p ready; returns completion time.
     */
    sim::Cycle finishAccess(unsigned g, sim::Cycle ready, sim::GpuId loc,
                            const LaneAccess &a);

    SystemConfig config_;
    workload::StreamedWorkload workload_;

    sim::EventQueue queue_;
    stats::StatSet stats_;
    // Per-access counters, resolved on first increment: results
    // serialize the counter set, so a counter must still appear only
    // once its event occurs.
    stats::CounterRef accessesCtr_{stats_, "sim.accesses"};
    stats::CounterRef staleReplaysCtr_{stats_, "sim.stale_replays"};
    stats::CounterRef remoteAccessesCtr_{stats_, "sim.remote_accesses"};
    stats::LatencyBreakdown breakdown_;
    std::unique_ptr<ic::Topology> fabric_;
    std::vector<std::unique_ptr<gpu::Gpu>> gpus_;
    std::unique_ptr<uvm::UvmDriver> driver_;
    std::unique_ptr<policy::PlacementPolicy> policy_;
    std::unique_ptr<baselines::TreePrefetcher> prefetcher_;
    std::unique_ptr<sim::FaultInjector> injector_;
    std::unique_ptr<sim::InvariantAuditor> auditor_;
    std::vector<std::string> auditFindings_;

    /** Per-run event timeline, engaged when the config samples one. */
    std::optional<stats::IntervalSampler> timeline_;

    /** Per-GPU shared work cursors (CU work distribution). */
    std::vector<GpuCursor> cursors_;
    unsigned pageShift_ = 0;      //!< log2(geometry.baseSize)
    std::uint64_t lineMask_ = 0;  //!< geometry.linesPerBase() - 1
    std::uint64_t totalAccesses_ = 0;
    std::uint64_t accessesBatched_ = 0;
    sim::Cycle finish_ = 0;
    std::array<std::uint64_t, 4> schemeAccesses_{};
    std::uint64_t peakReplicas_ = 0;
};

}  // namespace grit::harness

#endif  // GRIT_HARNESS_SIMULATOR_H_
