#include "harness/experiment_engine.h"

#include <atomic>
#include <climits>
#include <exception>
#include <optional>
#include <thread>
#include <utility>

#include "harness/cli.h"
#include "harness/record_log.h"
#include "harness/run_journal.h"
#include "harness/simulator.h"

namespace grit::harness {

RunPlan &
RunPlan::add(workload::AppId app, const LabeledConfig &config,
             const workload::WorkloadParams &params)
{
    workload::WorkloadParams p = params;
    p.numGpus = config.config.numGpus;
    return addCell(workload::appMeta(app).abbr, config.label,
                   config.config, app, p);
}

RunPlan &
RunPlan::addCell(std::string row, std::string label, SystemConfig config,
                 workload::AppId app, workload::WorkloadParams params)
{
    cells_.push_back(RunCell{std::move(row), std::move(label),
                             std::move(config), nullptr, app,
                             std::move(params)});
    return *this;
}

RunPlan &
RunPlan::addWorkload(std::string row, std::string label,
                     SystemConfig config, workload::WorkloadHandle workload)
{
    RunCell cell;
    cell.row = std::move(row);
    cell.label = std::move(label);
    cell.config = std::move(config);
    cell.workload = std::move(workload);
    cells_.push_back(std::move(cell));
    return *this;
}

RunPlan
RunPlan::matrix(const std::vector<workload::AppId> &apps,
                const std::vector<LabeledConfig> &configs,
                const workload::WorkloadParams &params)
{
    RunPlan plan;
    for (workload::AppId app : apps)
        for (const LabeledConfig &lc : configs)
            plan.add(app, lc, params);
    return plan;
}

unsigned
defaultJobs()
{
    if (const auto jobs = envWhole("GRIT_JOBS", 1, UINT_MAX))
        return static_cast<unsigned>(*jobs);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

ExperimentEngine::ExperimentEngine(const Options &options)
    : options_(options)
{
    cache_.setByteBudget(
        options_.traceCacheBytes != 0
            ? options_.traceCacheBytes
            : envWhole("GRIT_TRACE_CACHE_BYTES", 0, UINT64_MAX).value_or(0));
    chunkAccesses_ = options_.traceChunkAccesses;
    if (chunkAccesses_ == 0)
        chunkAccesses_ =
            envWhole("GRIT_TRACE_CHUNK", 0, UINT64_MAX).value_or(0);
    if (chunkAccesses_ == 0)
        chunkAccesses_ = workload::kDefaultChunkAccesses;
}

unsigned
ExperimentEngine::jobs() const
{
    return options_.jobs > 0 ? options_.jobs : defaultJobs();
}

namespace {

/** What one cell of a resilient sweep turned into. */
struct CellOutcome
{
    enum class Kind
    {
        kSkipped,   //!< never started, or interrupted, by the cancel flag
        kReused,    //!< replayed from the journal
        kExecuted,  //!< simulated (possibly quarantined)
    };
    Kind kind = Kind::kSkipped;
    JournalEntry entry;  //!< the journaled outcome (not kSkipped)
};

/** Journal I/O must never take down the sweep that feeds it. */
void
tryAppend(RecordLog *journal, const JournalEntry &entry)
{
    if (journal == nullptr)
        return;
    try {
        journal->append(entry);
    } catch (const std::exception &) {
        // Resume coverage is lost for this cell; the sweep goes on.
    }
}

bool
cancelRequested(const ResilientOptions &options)
{
    return options.cancelFlag != nullptr &&
           options.cancelFlag->load(std::memory_order_relaxed) != 0;
}

}  // namespace

std::optional<JournalEntry>
ExperimentEngine::runCell(const RunCell &cell,
                          const std::string &fingerprint,
                          const ResilientOptions &options)
{
    SystemConfig config = cell.config;
    if (options.wallDeadlineSec > 0.0)
        config.wallDeadlineSec = options.wallDeadlineSec;
    if (options.eventBudget != 0)
        config.eventBudget = options.eventBudget;
    if (options.cancelFlag != nullptr)
        config.cancelFlag = options.cancelFlag;

    JournalEntry entry;
    entry.fingerprint = fingerprint;
    entry.row = cell.row;
    entry.label = cell.label;
    for (entry.attempts = 1;; ++entry.attempts) {
        std::optional<sim::SimError> error;
        RunResult result;
        try {
            Simulator simulator(
                config,
                cell.workload
                    ? workload::streamWorkload(cell.workload,
                                               chunkAccesses_)
                    : cache_.openWorkload(cell.app, cell.params,
                                          chunkAccesses_));
            result = simulator.run(options.salvagePartial);
            if (result.partial)
                error = result.error
                            ? *result.error
                            : sim::SimError(sim::ErrorCode::kInternal,
                                            "partial result carries no "
                                            "diagnostic");
        } catch (const sim::SimException &e) {
            error = e.error();
        } catch (const std::exception &e) {
            error = sim::SimError(sim::ErrorCode::kInternal, e.what(),
                                  cell.row + "/" + cell.label);
        }

        if (!error) {
            entry.status = "ok";
            entry.hasResult = true;
            entry.result = std::move(result);
            return entry;
        }
        // Deliberately neither journaled nor quarantined: the cell never
        // finished on its own terms, so a resumed sweep re-executes it.
        if (error->code == sim::ErrorCode::kInterrupted)
            return std::nullopt;
        const bool transient = error->code == sim::ErrorCode::kDeadline;
        if (transient && entry.attempts <= options.retries &&
            !cancelRequested(options))
            continue;

        entry.status = "failed";
        entry.error = std::move(*error);
        // Only a salvaging run returns partial counters.
        entry.hasResult = result.partial;
        if (entry.hasResult)
            entry.result = std::move(result);
        return entry;
    }
}

SweepResult
ExperimentEngine::runResilient(const RunPlan &plan,
                               const ResilientOptions &options)
{
    const std::vector<RunCell> &cells = plan.cells();
    std::vector<CellOutcome> outcomes(cells.size());

    auto runPlanCell = [&](std::size_t i) {
        CellOutcome &out = outcomes[i];
        const std::string fingerprint = runFingerprint(cells[i]);
        if (options.journal != nullptr) {
            if (const JournalEntry *e =
                    options.journal->find(fingerprint)) {
                out.kind = CellOutcome::Kind::kReused;
                out.entry = *e;
                return;
            }
        }
        if (cancelRequested(options))
            return;
        std::optional<JournalEntry> entry =
            runCell(cells[i], fingerprint, options);
        if (!entry)
            return;
        tryAppend(options.journal, *entry);
        out.kind = CellOutcome::Kind::kExecuted;
        out.entry = std::move(*entry);
    };

    const std::size_t workers = std::min<std::size_t>(
        jobs(), std::max<std::size_t>(cells.size(), 1));
    if (workers <= 1) {
        for (std::size_t i = 0; i < cells.size(); ++i)
            runPlanCell(i);
    } else {
        std::atomic<std::size_t> next{0};
        {
            std::vector<std::jthread> pool;
            pool.reserve(workers);
            for (std::size_t t = 0; t < workers; ++t) {
                pool.emplace_back([&] {
                    for (std::size_t i = next.fetch_add(1);
                         i < cells.size(); i = next.fetch_add(1))
                        runPlanCell(i);
                });
            }
        }  // jthread joins here
    }

    // Fold in plan order so the manifest and counts are deterministic
    // regardless of which worker finished first.
    SweepResult sweep;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        CellOutcome &o = outcomes[i];
        const RunCell &cell = cells[i];
        switch (o.kind) {
          case CellOutcome::Kind::kSkipped:
            ++sweep.skipped;
            sweep.cancelled = true;
            continue;
          case CellOutcome::Kind::kReused:
            ++sweep.reused;
            break;
          case CellOutcome::Kind::kExecuted:
            ++sweep.executed;
            break;
        }
        JournalEntry &e = o.entry;
        if (e.status == "failed") {
            FailureRecord f;
            f.row = cell.row;
            f.label = cell.label;
            f.fingerprint = e.fingerprint;
            f.error = e.error ? *e.error
                              : sim::SimError(sim::ErrorCode::kInternal,
                                              "journaled failure carries "
                                              "no diagnostic");
            f.attempts = e.attempts;
            f.salvaged = e.hasResult;
            sweep.failures.push_back(std::move(f));
        }
        if (e.hasResult)
            sweep.matrix[cell.row][cell.label] = std::move(e.result);
    }
    if (cancelRequested(options))
        sweep.cancelled = true;
    return sweep;
}

}  // namespace grit::harness
