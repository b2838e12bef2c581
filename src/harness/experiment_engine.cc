#include "harness/experiment_engine.h"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <optional>
#include <thread>
#include <utility>

#include "harness/record_log.h"
#include "harness/run_journal.h"
#include "harness/simulator.h"
#include "simcore/log.h"

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
                const workload::WorkloadParams &params,
                const std::function<void(workload::AppId,
                                         workload::WorkloadParams &)>
                    &mutate)
{
    RunPlan plan;
    for (workload::AppId app : apps) {
        workload::WorkloadParams p = params;
        if (mutate)
            mutate(app, p);
        for (const LabeledConfig &lc : configs)
            plan.add(app, lc, p);
    }
    return plan;
}

unsigned
defaultJobs()
{
    if (const char *env = std::getenv("GRIT_JOBS")) {
        const unsigned long jobs = std::strtoul(env, nullptr, 10);
        if (jobs > 0)
            return static_cast<unsigned>(jobs);
        GRIT_LOG(sim::LogLevel::kWarn,
                 "ignoring invalid GRIT_JOBS value \"" << env << "\"");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

namespace {

/**
 * The unsigned integer in environment variable @p name: 0 when unset,
 * and 0 with a warning when it is not a number.
 */
std::uint64_t
envCount(const char *name)
{
    const char *env = std::getenv(name);
    if (env == nullptr)
        return 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (end != env && *end == '\0')
        return v;
    GRIT_LOG(sim::LogLevel::kWarn,
             "ignoring invalid " << name << " value \"" << env << "\"");
    return 0;
}

}  // namespace

ExperimentEngine::ExperimentEngine(const Options &options)
    : options_(options)
{
    cache_.setByteBudget(options_.traceCacheBytes != 0
                             ? options_.traceCacheBytes
                             : envCount("GRIT_TRACE_CACHE_BYTES"));
    chunkAccesses_ = options_.traceChunkAccesses;
    if (chunkAccesses_ == 0)
        chunkAccesses_ = envCount("GRIT_TRACE_CHUNK");
    if (chunkAccesses_ == 0)
        chunkAccesses_ = workload::kDefaultChunkAccesses;
}

unsigned
ExperimentEngine::jobs() const
{
    return options_.jobs > 0 ? options_.jobs : defaultJobs();
}

ResultMatrix
ExperimentEngine::run(const RunPlan &plan)
{
    // Front end over the resilient path (the sole sweep executor):
    // no journal, no watchdog overrides, no partial salvage. The
    // manifest is already ordered by plan position, so rethrowing the
    // first failure reproduces the historical first-in-plan-order-wins
    // exception behaviour independent of thread timing.
    ResilientOptions options;
    options.salvagePartial = false;
    SweepResult sweep = runResilient(plan, options);
    if (!sweep.failures.empty())
        throw sim::SimException(sweep.failures.front().error);
    return std::move(sweep.matrix);
}

namespace {

/** What one cell of a resilient sweep turned into. */
struct CellOutcome
{
    bool reused = false;       //!< replayed from the journal
    bool executed = false;     //!< simulated (possibly quarantined)
    bool notStarted = false;   //!< cancel flag was up before launch
    bool interrupted = false;  //!< stopped mid-run by the cancel flag
    bool hasResult = false;
    RunResult result;
    std::optional<FailureRecord> failure;
};

/** Journal I/O must never take down the sweep that feeds it. */
void
tryAppend(RecordLog *journal, const JournalEntry &entry)
{
    if (journal == nullptr)
        return;
    try {
        journal->append(entry);
    } catch (const std::exception &e) {
        GRIT_LOG(sim::LogLevel::kWarn,
                 "journal append failed (resume coverage lost for "
                     << entry.row << "/" << entry.label
                     << "): " << e.what());
    }
}

}  // namespace

SweepResult
ExperimentEngine::runResilient(const RunPlan &plan,
                               const ResilientOptions &options)
{
    const std::vector<RunCell> &cells = plan.cells();
    std::vector<CellOutcome> outcomes(cells.size());

    auto cancelRequested = [&options] {
        return options.cancelFlag != nullptr &&
               options.cancelFlag->load(std::memory_order_relaxed) != 0;
    };

    auto runCell = [&](std::size_t i) {
        CellOutcome &out = outcomes[i];
        const RunCell &cell = cells[i];
        const std::string fingerprint = runFingerprint(cell);

        if (options.journal != nullptr) {
            if (const JournalEntry *e =
                    options.journal->find(fingerprint)) {
                out.reused = true;
                if (e->hasResult) {
                    out.hasResult = true;
                    out.result = e->result;
                }
                if (e->status == "failed") {
                    FailureRecord f;
                    f.cellIndex = i;
                    f.row = cell.row;
                    f.label = cell.label;
                    f.fingerprint = fingerprint;
                    f.error = e->error
                                  ? *e->error
                                  : sim::SimError(
                                        sim::ErrorCode::kInternal,
                                        "journaled failure carries no "
                                        "diagnostic");
                    f.attempts = e->attempts;
                    f.salvaged = e->hasResult;
                    out.failure = std::move(f);
                }
                return;
            }
        }
        if (cancelRequested()) {
            out.notStarted = true;
            return;
        }

        SystemConfig config = cell.config;
        if (options.wallDeadlineSec > 0.0)
            config.wallDeadlineSec = options.wallDeadlineSec;
        if (options.eventBudget != 0)
            config.eventBudget = options.eventBudget;
        if (options.cancelFlag != nullptr)
            config.cancelFlag = options.cancelFlag;

        unsigned attempts = 0;
        while (true) {
            ++attempts;
            std::optional<sim::SimError> error;
            RunResult result;
            bool salvaged = false;
            try {
                Simulator simulator(
                    config,
                    cell.workload
                        ? workload::streamWorkload(cell.workload,
                                                   chunkAccesses_)
                        : cache_.openWorkload(cell.app, cell.params,
                                              chunkAccesses_));
                result = simulator.run(options.salvagePartial);
                if (result.partial) {
                    error = result.error
                                ? *result.error
                                : sim::SimError(
                                      sim::ErrorCode::kInternal,
                                      "partial result carries no "
                                      "diagnostic");
                    salvaged = true;
                }
            } catch (const sim::SimException &e) {
                error = e.error();
            } catch (const std::exception &e) {
                error = sim::SimError(sim::ErrorCode::kInternal,
                                      e.what(),
                                      cell.row + "/" + cell.label);
            }

            if (!error) {
                out.executed = true;
                out.hasResult = true;
                out.result = std::move(result);
                JournalEntry entry;
                entry.fingerprint = fingerprint;
                entry.row = cell.row;
                entry.label = cell.label;
                entry.status = "ok";
                entry.attempts = attempts;
                entry.hasResult = true;
                entry.result = out.result;
                tryAppend(options.journal, entry);
                return;
            }
            if (error->code == sim::ErrorCode::kInterrupted) {
                // Deliberately not journaled and not quarantined: the
                // cell never finished on its own terms, so a resumed
                // sweep must re-execute it.
                out.interrupted = true;
                return;
            }
            const bool transient =
                error->code == sim::ErrorCode::kDeadline;
            if (transient && attempts <= options.retries &&
                !cancelRequested())
                continue;

            out.executed = true;
            FailureRecord f;
            f.cellIndex = i;
            f.row = cell.row;
            f.label = cell.label;
            f.fingerprint = fingerprint;
            f.error = *error;
            f.attempts = attempts;
            f.salvaged = salvaged && options.salvagePartial;
            if (f.salvaged) {
                out.hasResult = true;
                out.result = result;
            }
            JournalEntry entry;
            entry.fingerprint = fingerprint;
            entry.row = cell.row;
            entry.label = cell.label;
            entry.status = "failed";
            entry.attempts = attempts;
            entry.error = *error;
            if (f.salvaged) {
                entry.hasResult = true;
                entry.result = result;
            }
            out.failure = std::move(f);
            tryAppend(options.journal, entry);
            return;
        }
    };

    const std::size_t workers = std::min<std::size_t>(
        jobs(), std::max<std::size_t>(cells.size(), 1));
    if (workers <= 1) {
        for (std::size_t i = 0; i < cells.size(); ++i)
            runCell(i);
    } else {
        std::atomic<std::size_t> next{0};
        {
            std::vector<std::jthread> pool;
            pool.reserve(workers);
            for (std::size_t t = 0; t < workers; ++t) {
                pool.emplace_back([&] {
                    for (std::size_t i = next.fetch_add(1);
                         i < cells.size(); i = next.fetch_add(1))
                        runCell(i);
                });
            }
        }  // jthread joins here
    }

    // Fold in plan order so the manifest and counts are deterministic
    // regardless of which worker finished first.
    SweepResult sweep;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        CellOutcome &o = outcomes[i];
        if (o.notStarted || o.interrupted) {
            ++sweep.skipped;
            sweep.cancelled = true;
            continue;
        }
        if (o.reused)
            ++sweep.reused;
        else if (o.executed)
            ++sweep.executed;
        if (o.hasResult)
            sweep.matrix[cells[i].row][cells[i].label] =
                std::move(o.result);
        if (o.failure)
            sweep.failures.push_back(std::move(*o.failure));
    }
    if (cancelRequested())
        sweep.cancelled = true;
    return sweep;
}

}  // namespace grit::harness
