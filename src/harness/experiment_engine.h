/**
 * @file
 * Parallel, cache-aware experiment engine.
 *
 * A RunPlan is a flat list of (row, label, config, workload) cells; the
 * ExperimentEngine executes them on a worker pool and folds the results
 * into the same ResultMatrix the serial harness produced. Each Simulator
 * is a self-contained deterministic island (own EventQueue, own stats),
 * so cells parallelize perfectly: results are bit-identical to a serial
 * run regardless of thread count. Every cell replays TraceStreams:
 * app-generated cells share one generation of each trace chunk through
 * a workload::TraceCache, prebuilt cells stream their workload handle
 * (workload::streamWorkload).
 *
 * Worker count: Options::jobs if nonzero, else the GRIT_JOBS
 * environment variable, else std::thread::hardware_concurrency().
 */

#ifndef GRIT_HARNESS_EXPERIMENT_ENGINE_H_
#define GRIT_HARNESS_EXPERIMENT_ENGINE_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/run_journal.h"
#include "workload/trace_cache.h"

namespace grit::harness {

class RecordLog;

/** One experiment cell: a workload run under one configuration. */
struct RunCell
{
    std::string row;    //!< ResultMatrix row (app abbreviation, model, ...)
    std::string label;  //!< ResultMatrix column (configuration label)
    SystemConfig config;
    /** Prebuilt trace; when null, generated from (app, params). */
    workload::WorkloadHandle workload;
    workload::AppId app = workload::AppId::kBfs;
    workload::WorkloadParams params;
};

/** An ordered list of cells for the engine to execute. */
class RunPlan
{
  public:
    /**
     * Add @p app under @p config; the row label is the app's Table II
     * abbreviation and params.numGpus is forced to config.numGpus.
     */
    RunPlan &add(workload::AppId app, const LabeledConfig &config,
                 const workload::WorkloadParams &params = {});

    /** Add a fully specified generated-trace cell. */
    RunPlan &addCell(std::string row, std::string label,
                     SystemConfig config, workload::AppId app,
                     workload::WorkloadParams params);

    /** Add a prebuilt workload (DNN models, custom traces). */
    RunPlan &addWorkload(std::string row, std::string label,
                         SystemConfig config,
                         workload::WorkloadHandle workload);

    /** The full app x config cross product, app-major. */
    static RunPlan matrix(const std::vector<workload::AppId> &apps,
                          const std::vector<LabeledConfig> &configs,
                          const workload::WorkloadParams &params = {});

    const std::vector<RunCell> &cells() const { return cells_; }
    std::size_t size() const { return cells_.size(); }
    bool empty() const { return cells_.empty(); }

  private:
    std::vector<RunCell> cells_;
};

/**
 * Resolved worker count: GRIT_JOBS env if set, else hardware threads.
 * @throws sim::SimException (kBadArgument) when GRIT_JOBS is not a whole
 *         number from 1 to 4294967295.
 */
unsigned defaultJobs();

/** Knobs of the resilient execution path (runResilient, runCell). */
struct ResilientOptions
{
    /**
     * Journal completed cells here and skip cells the journal already
     * holds; nullptr disables journaling. Non-owning; must be open.
     * Only runResilient reads it.
     */
    RecordLog *journal = nullptr;
    /** Per-run wall-clock deadline (seconds); 0 keeps each config's. */
    double wallDeadlineSec = 0.0;
    /** Per-run executed-event budget; 0 keeps each config's. */
    std::uint64_t eventBudget = 0;
    /**
     * Cooperative-cancel flag (e.g. wired to a SIGINT handler): a
     * nonzero value stops in-flight runs between events and skips
     * cells not yet started. Non-owning; may be nullptr.
     */
    const std::atomic<int> *cancelFlag = nullptr;
    /**
     * Re-executions granted to transient failures (kDeadline). Other
     * codes are deterministic and never retried.
     */
    unsigned retries = 0;
    /** Export counters-so-far of timed-out runs (partial results). */
    bool salvagePartial = true;
};

/** One quarantined cell in a SweepResult's failure manifest. */
struct FailureRecord
{
    std::string row;
    std::string label;
    std::string fingerprint;
    sim::SimError error;
    unsigned attempts = 1;
    /** True when the partial counters made it into the matrix. */
    bool salvaged = false;
};

/**
 * Outcome of a resilient sweep: every cell either produced a matrix
 * entry (complete, or salvaged-partial), was quarantined into the
 * failure manifest, or was left unstarted by a cancel.
 */
struct SweepResult
{
    ResultMatrix matrix;
    /** Quarantined cells, in plan order. */
    std::vector<FailureRecord> failures;
    std::size_t executed = 0;  //!< cells actually simulated
    std::size_t reused = 0;    //!< cells replayed from the journal
    std::size_t skipped = 0;   //!< cells never started (cancel)
    /** The sweep was stopped early by the cancel flag. */
    bool cancelled = false;
    /** Every planned cell ran (or was reused) and none failed. */
    bool complete() const { return failures.empty() && !cancelled; }
};

/** Executes RunPlans on a worker pool with a shared trace cache. */
class ExperimentEngine
{
  public:
    struct Options
    {
        /** Worker threads; 0 = auto (GRIT_JOBS env, else all cores). */
        unsigned jobs = 0;
        /**
         * Trace-cache byte budget; 0 = take it from the
         * GRIT_TRACE_CACHE_BYTES environment variable (absent or 0 =
         * unbounded).
         */
        std::uint64_t traceCacheBytes = 0;
        /**
         * Accesses per trace chunk; 0 = the GRIT_TRACE_CHUNK
         * environment variable, else workload::kDefaultChunkAccesses.
         * Chunking is pure framing: results never depend on it.
         * Construction throws sim::SimException (kBadArgument) when a
         * variable it reads is not a whole number.
         */
        std::uint64_t traceChunkAccesses = 0;
    };

    ExperimentEngine() : ExperimentEngine(Options{}) {}
    explicit ExperimentEngine(const Options &options);

    /**
     * Execute every cell of @p plan and fold the results into a
     * ResultMatrix, the one sweep executor: cells found in the journal
     * are replayed instead of re-simulated; watchdog/cancel
     * diagnostics and per-cell exceptions are quarantined into the
     * failure manifest (the rest of the sweep proceeds); transient
     * failures get @p options.retries re-executions; timed-out runs
     * optionally salvage counters-so-far into the matrix as partial
     * results.
     * Deterministic: the matrix and the failure manifest are identical
     * for any worker count, and a resumed sweep merges to the same
     * matrix an uninterrupted one produces.
     */
    SweepResult runResilient(const RunPlan &plan,
                             const ResilientOptions &options);

    /**
     * Execute one cell under @p options' watchdog overrides, retrying
     * transient failures (kDeadline) and salvaging partial counters,
     * and return its outcome keyed by @p fingerprint: status "ok" with
     * the result, or "failed" with the diagnostic (and the partial
     * result when salvaged). Exceptions become "failed" entries. The
     * journal is neither read nor written. Returns nullopt only when
     * the cancel flag interrupted the run. Thread-safe: concurrent
     * calls share the trace cache.
     */
    std::optional<JournalEntry> runCell(const RunCell &cell,
                                        const std::string &fingerprint,
                                        const ResilientOptions &options);

    /** Worker count runResilient() will use. */
    unsigned jobs() const;

    /** Trace cache (hit/miss stats survive across sweeps). */
    const workload::TraceCache &traceCache() const { return cache_; }

  private:
    Options options_;
    workload::TraceCache cache_;
    std::uint64_t chunkAccesses_ = 0;
};

}  // namespace grit::harness

#endif  // GRIT_HARNESS_EXPERIMENT_ENGINE_H_
