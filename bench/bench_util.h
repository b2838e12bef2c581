/**
 * @file
 * Shared helpers for the figure-reproduction bench binaries.
 *
 * Every binary owns a BenchArgs — the declarative harness::Cli flag
 * registry pre-loaded with the standard flag set (`--jobs`, `--json`,
 * `--trace`, `--chaos`, `--audit`, and the resilient-sweep controls
 * `--journal`, `--resume`, `--deadline`, `--event-budget`, `--retries`,
 * `--sweep-stats`; docs/METRICS.md documents the emitted schema and
 * EXPERIMENTS.md the sweep workflow) — registers any binary-specific
 * flags or positionals on args.cli, and hands control to guardedMain,
 * which parses the command line, handles `--help`, and enforces the
 * exit-code contract. Unknown flags are structured usage errors now,
 * not silently ignored tokens.
 *
 * Exit-code contract (checked by the "robustness" ctest cases):
 *   0        - full sweep, every run completed (also: --help)
 *   2        - structured configuration/usage error (SimException)
 *   3        - partial sweep: at least one run was quarantined
 *   128+sig  - the sweep drained early after SIGINT/SIGTERM
 */

#ifndef GRIT_BENCH_BENCH_UTIL_H_
#define GRIT_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "harness/cli.h"
#include "harness/config.h"
#include "harness/experiment.h"
#include "harness/experiment_engine.h"
#include "harness/record_log.h"
#include "harness/results_io.h"
#include "harness/run_journal.h"
#include "harness/table.h"
#include "simcore/trace_recorder.h"
#include "workload/apps.h"

namespace grit::bench {

/** Exit codes of the bench binaries (see file comment). */
inline constexpr int kExitFull = 0;
inline constexpr int kExitUsage = 2;
inline constexpr int kExitPartialSweep = 3;

/**
 * The cooperative-cancel flag SIGINT/SIGTERM handlers raise; wired
 * into every resilient sweep so in-flight runs stop between events.
 */
inline std::atomic<int> &
cancelFlag()
{
    static std::atomic<int> flag{0};
    return flag;
}

/** The received signal number; 0 while no signal arrived. */
inline int
cancelSignal()
{
    return cancelFlag().load(std::memory_order_relaxed);
}

namespace detail {

/** Async-signal-safe: one relaxed atomic store, nothing else. */
inline void
signalHandler(int sig)
{
    cancelFlag().store(sig, std::memory_order_relaxed);
}

}  // namespace detail

/**
 * Install the SIGINT/SIGTERM drain handlers. Idempotent; guardedMain
 * calls it, so bench binaries inherit graceful shutdown for free.
 * SIGPIPE is ignored: a peer hanging up mid-write must come back as
 * EPIPE from the socket layer, never terminate the process.
 */
inline void
installSignalHandlers()
{
    cancelFlag().store(0, std::memory_order_relaxed);  // touch eagerly
    std::signal(SIGINT, &detail::signalHandler);
    std::signal(SIGTERM, &detail::signalHandler);
    std::signal(SIGPIPE, SIG_IGN);
}

/** Workload parameters for bench runs (env-overridable). */
inline workload::WorkloadParams
benchParams()
{
    workload::WorkloadParams params;
    if (const char *div = std::getenv("GRIT_FOOTPRINT_DIVISOR"))
        params.footprintDivisor =
            static_cast<unsigned>(std::strtoul(div, nullptr, 10));
    if (const char *intensity = std::getenv("GRIT_INTENSITY"))
        params.intensity = std::strtod(intensity, nullptr);
    if (const char *seed = std::getenv("GRIT_SEED"))
        params.seed = std::strtoull(seed, nullptr, 10);
    return params;
}

/**
 * The standard bench command line: a harness::Cli registry pre-loaded
 * with the flags every bench binary shares, plus the variables they
 * parse into. Binaries register extra flags and positionals on `cli`
 * before handing the whole object to guardedMain, which parses argv
 * and validates cross-flag rules inside the structured-error guard.
 */
struct BenchArgs
{
    harness::Cli cli;

    unsigned jobs = 0;              //!< --jobs/-j (0 = GRIT_JOBS/auto)
    std::string jsonPath;           //!< --json <path> ("-" = stdout)
    std::string tracePath;          //!< --trace <path> ("-" = stdout)
    std::string chaosSpec;          //!< --chaos <spec>
    bool audit = false;             //!< --audit
    std::string topology;           //!< --topology <kind>
    bool fabricStats = false;       //!< --fabric-stats
    std::string journalPath;        //!< --journal <path>
    bool resume = false;            //!< --resume (with --journal)
    double deadlineSec = 0.0;       //!< --deadline <seconds>
    std::uint64_t eventBudget = 0;  //!< --event-budget <events>
    unsigned retries = 0;           //!< --retries <n> (transient only)
    bool sweepStats = false;        //!< --sweep-stats ("sweep" section)
    std::uint64_t pageSizeBytes = 0;   //!< --page-size <bytes>
    std::uint64_t hugePagesBytes = 0;  //!< --huge-pages <bytes>

    BenchArgs(const std::string &program, const std::string &title)
        : cli(program, title)
    {
        cli.flag("--jobs", &jobs, "N",
                 "parallel sweep workers (0 = GRIT_JOBS env, else all "
                 "cores)",
                 "-j");
        cli.flag("--json", &jsonPath, "PATH",
                 "write the grit-results JSON document (\"-\" = stdout)");
        cli.flag("--trace", &tracePath, "PATH",
                 "write a Chrome trace-event timeline (\"-\" = stdout)");
        cli.flag("--chaos", &chaosSpec, "SPEC",
                 "deterministic fault injection (docs/ROBUSTNESS.md)");
        cli.flag("--audit", &audit,
                 "run cross-layer invariant audits during simulation");
        cli.flag("--topology", &topology, "KIND",
                 "interconnect topology: all-to-all, ring, switch, "
                 "chiplet (docs/TOPOLOGY.md)");
        cli.flag("--fabric-stats", &fabricStats,
                 "export per-link fabric.* counters into results");
        cli.flag("--journal", &journalPath, "PATH",
                 "crash-safe sweep journal for --resume");
        cli.flag("--resume", &resume,
                 "reuse finished cells from the --journal file");
        cli.flag("--deadline", &deadlineSec, "SEC",
                 "wall-clock budget per run; over-budget runs are "
                 "quarantined");
        cli.flag("--event-budget", &eventBudget, "N",
                 "event budget per run; over-budget runs are "
                 "quarantined");
        cli.flag("--retries", &retries, "N",
                 "re-execute quarantined runs up to N times");
        cli.flag("--sweep-stats", &sweepStats,
                 "include the \"sweep\" section in --json output");
        cli.flag("--page-size", &pageSizeBytes, "BYTES",
                 "base translation granule (docs/PAGESIZE.md; 0 keeps "
                 "the 4 KB default)");
        cli.flag("--huge-pages", &hugePagesBytes, "BYTES",
                 "enable dynamic huge-page promotion with this region "
                 "size (0 = off; docs/PAGESIZE.md)");
    }

    /**
     * Cross-flag rules, enforced after parse(). Throws kBadArgument
     * (exit code 2 via guardedMain) on unusable combinations.
     */
    void
    validate() const
    {
        if (resume && journalPath.empty())
            throw sim::SimException(
                sim::ErrorCode::kBadArgument,
                "--resume requires --journal <path>");
        if (deadlineSec < 0.0)
            throw sim::SimException(
                sim::ErrorCode::kBadArgument,
                "--deadline needs a positive number of seconds");
    }
};

/**
 * Apply the config-shaping flags — `--chaos <spec>`, `--audit`,
 * `--topology <kind>`, `--fabric-stats`, `--page-size`,
 * `--huge-pages` — to @p config. A malformed chaos spec throws
 * sim::SimException (kChaosSpec) and an unknown topology name
 * kBadArgument — guardedMain shows the user the structured
 * diagnostic, not a crash. Nonsensical page-size combinations are
 * left to SystemConfig::validate(), which reports them as structured
 * geometry.* errors.
 */
inline void
applyOverrides(const BenchArgs &args, harness::SystemConfig &config)
{
    if (args.pageSizeBytes != 0)
        config.geometry.baseSize = args.pageSizeBytes;
    if (args.hugePagesBytes != 0) {
        config.geometry.hugePages = true;
        config.geometry.hugeSize = args.hugePagesBytes;
    }
    if (args.pageSizeBytes != 0 || args.hugePagesBytes != 0)
        config.pageSizeStats = true;  // the counters the flags are for
    if (!args.chaosSpec.empty())
        config.chaos = sim::ChaosSpec::parse(args.chaosSpec);
    if (args.audit)
        config.audit = true;
    if (!args.topology.empty()) {
        const auto kind = ic::topologyKindFromName(args.topology);
        if (!kind)
            throw sim::SimException(
                sim::ErrorCode::kBadArgument,
                "--topology: unknown topology \"" + args.topology +
                    "\" (expected all-to-all, ring, switch, or chiplet)");
        config.fabric.kind = *kind;
    }
    if (args.fabricStats)
        config.fabricStats = true;
}

/**
 * What the last resilient sweep in this process did; consulted by
 * maybeWriteJson (failure manifest, sweep stats) and guardedMain
 * (partial-sweep exit code).
 */
struct SweepReport
{
    bool active = false;  //!< a resilient sweep ran
    bool sweepStats = false;
    bool cancelled = false;
    std::vector<harness::FailureRecord> failures;
    harness::SweepStatsView stats;
};

inline SweepReport &
sweepReport()
{
    static SweepReport report;
    return report;
}

/**
 * Execute @p plan resiliently: journal/resume, per-run watchdogs, and
 * failure quarantine per the CLI flags; the cancel flag is always
 * wired so SIGINT/SIGTERM drain instead of killing the process. Fills
 * sweepReport() and prints quarantined cells to stderr; the matrix
 * (with salvaged partial runs) is returned for normal reporting.
 */
inline harness::ResultMatrix
runPlanResilient(harness::ExperimentEngine &engine,
                 const harness::RunPlan &plan, const BenchArgs &args)
{
    harness::ResilientOptions options;
    options.wallDeadlineSec = args.deadlineSec;
    options.eventBudget = args.eventBudget;
    options.retries = args.retries;
    options.cancelFlag = &cancelFlag();
    harness::RecordLog journal;
    if (!args.journalPath.empty()) {
        // A fresh sweep starts a new journal. A binary that sweeps
        // several plans (fig22_24 runs one per GPU count) shares one,
        // so re-opens within the process keep the earlier sweeps.
        static std::vector<std::string> opened;
        const bool reopened =
            std::find(opened.begin(), opened.end(), args.journalPath) !=
            opened.end();
        if (!args.resume && !reopened)
            std::remove(args.journalPath.c_str());
        journal.open(args.journalPath,
                     {harness::kJournalSchema, harness::kJournalVersion,
                      args.cli.program()});
        if (!reopened)
            opened.push_back(args.journalPath);
        options.journal = &journal;
    }

    harness::SweepResult sweep = engine.runResilient(plan, options);

    // Accumulate across sweeps in the same process so the manifest,
    // stats, and exit code cover all of them.
    SweepReport &report = sweepReport();
    report.active = true;
    report.sweepStats |= args.sweepStats;
    report.cancelled |= sweep.cancelled;
    const std::size_t firstNew = report.failures.size();
    report.failures.insert(
        report.failures.end(),
        std::make_move_iterator(sweep.failures.begin()),
        std::make_move_iterator(sweep.failures.end()));
    report.stats.executed += sweep.executed;
    report.stats.reused += sweep.reused;
    report.stats.skipped += sweep.skipped;
    const workload::TraceCache &cache = engine.traceCache();
    report.stats.cacheHits += cache.hits();
    report.stats.cacheMisses += cache.misses();
    report.stats.cacheEvictions += cache.evictions();
    report.stats.cacheBytes = cache.bytes();
    report.stats.cacheByteBudget = cache.byteBudget();

    for (std::size_t i = firstNew; i < report.failures.size(); ++i) {
        const harness::FailureRecord &f = report.failures[i];
        std::cerr << "quarantined " << f.row << "/" << f.label << " ("
                  << f.attempts << " attempt"
                  << (f.attempts == 1 ? "" : "s")
                  << (f.salvaged ? ", partial counters salvaged" : "")
                  << "): " << f.error.str() << "\n";
    }
    if (sweep.cancelled)
        std::cerr << "sweep drained early on signal " << cancelSignal()
                  << ": " << sweep.skipped
                  << " cell(s) left for --resume\n";
    return std::move(sweep.matrix);
}

/**
 * Parse the command line into @p args, then run @p body, converting
 * structured simulator errors (unknown flag, bad config, malformed
 * chaos spec, tripped watchdog) into an actionable stderr message and
 * exit code 2 instead of an abort. `--help` prints the generated flag
 * summary and exits 0 without running the body. Installs the
 * SIGINT/SIGTERM drain handlers, and maps a clean return onto the
 * exit-code contract: 128+signal when the sweep drained early, 3 when
 * runs were quarantined, the body's own code otherwise. Every bench
 * binary's main() delegates here.
 */
template <typename Body>
int
guardedMain(int argc, char **argv, BenchArgs &args, Body &&body)
{
    installSignalHandlers();
    try {
        if (!args.cli.parse(argc, argv))
            return kExitFull;  // --help
        args.validate();
        int code = body();
        if (code == 0) {
            if (cancelSignal() != 0)
                code = 128 + cancelSignal();
            else if (!sweepReport().failures.empty())
                code = kExitPartialSweep;
        }
        return code;
    } catch (const sim::SimException &e) {
        std::cerr << e.error().str() << "\n";
        return kExitUsage;
    } catch (const std::exception &e) {
        std::cerr << "error [internal]: " << e.what() << "\n";
        return kExitUsage;
    }
}

/**
 * Open @p path for deterministic text output ("-" selects stdout).
 * Exits with a diagnostic when the file cannot be created, so a typo'd
 * path fails loudly instead of silently dropping the results.
 */
inline std::unique_ptr<std::ostream>
openOutput(const std::string &path)
{
    if (path == "-")
        return nullptr;  // caller uses std::cout
    auto os = std::make_unique<std::ofstream>(path, std::ios::binary);
    if (!*os) {
        std::cerr << "error: cannot open " << path << " for writing\n";
        std::exit(1);
    }
    return os;
}

/**
 * Write the "grit-results" document for @p matrix if `--json` given.
 * After a resilient sweep this includes the failure manifest and (with
 * --sweep-stats) the "sweep" section; an all-green sweep emits exactly
 * the classic document, so resumed and uninterrupted sweeps diff clean.
 */
inline void
maybeWriteJson(const BenchArgs &args, const std::string &generator,
               const std::string &title,
               const workload::WorkloadParams &params,
               const harness::ResultMatrix &matrix)
{
    if (args.jsonPath.empty())
        return;
    auto file = openOutput(args.jsonPath);
    const SweepReport &report = sweepReport();
    if (report.active)
        harness::writeSweepResult(
            file ? *file : std::cout, generator, title, params, matrix,
            report.failures,
            report.sweepStats ? &report.stats : nullptr);
    else
        harness::writeResultMatrix(file ? *file : std::cout, generator,
                                   title, params, matrix);
    if (file)
        std::cerr << "results: " << args.jsonPath << "\n";
}

/** Tables-section variant for the characterization binaries. */
inline void
maybeWriteJsonTables(const BenchArgs &args, const std::string &generator,
                     const std::string &title,
                     const workload::WorkloadParams &params,
                     const std::vector<harness::NamedTable> &tables)
{
    if (args.jsonPath.empty())
        return;
    auto file = openOutput(args.jsonPath);
    harness::writeResultTables(file ? *file : std::cout, generator, title,
                               params, tables);
    if (file)
        std::cerr << "results: " << args.jsonPath << "\n";
}

/**
 * A TraceRecorder when `--trace <path>` was given, else nullptr. Wire
 * the recorder into SystemConfig::trace (single-run binaries only: the
 * recorder must not be shared across parallel simulators).
 */
inline std::unique_ptr<sim::TraceRecorder>
makeTrace(const BenchArgs &args)
{
    if (args.tracePath.empty())
        return nullptr;
    return std::make_unique<sim::TraceRecorder>();
}

/** Write @p trace as Chrome trace-event JSON to the `--trace` path. */
inline void
maybeWriteTrace(const BenchArgs &args, const sim::TraceRecorder *trace)
{
    if (trace == nullptr)
        return;
    auto file = openOutput(args.tracePath);
    trace->writeChromeTrace(file ? *file : std::cout);
    (file ? *file : std::cout) << "\n";
    if (file) {
        std::cerr << "trace: " << args.tracePath << " (" << trace->size()
                  << " events";
        if (trace->dropped() > 0)
            std::cerr << ", " << trace->dropped() << " dropped";
        std::cerr << ")\n";
    }
}

/** An ExperimentEngine honoring `--jobs`/`-j` (else GRIT_JOBS/auto). */
inline harness::ExperimentEngine
makeEngine(const BenchArgs &args)
{
    harness::ExperimentEngine::Options options;
    options.jobs = args.jobs;
    return harness::ExperimentEngine(options);
}

/**
 * Run the app x config sweep on the parallel engine, through the
 * resilient path: cells journal/resume via `--journal`/`--resume`,
 * hung runs are cut off by `--deadline`/`--event-budget` and
 * quarantined, and SIGINT/SIGTERM drain gracefully.
 */
inline harness::ResultMatrix
runSweep(const std::vector<workload::AppId> &apps,
         const std::vector<harness::LabeledConfig> &configs,
         const workload::WorkloadParams &params, const BenchArgs &args)
{
    auto engine = makeEngine(args);
    const auto plan = harness::RunPlan::matrix(apps, configs, params);
    return runPlanResilient(engine, plan, args);
}

/** The three uniform schemes the paper compares against. */
inline std::vector<harness::LabeledConfig>
uniformConfigs(unsigned num_gpus = 4)
{
    using harness::PolicyKind;
    return {
        {"on-touch", harness::makeConfig(PolicyKind::kOnTouch, num_gpus)},
        {"access-counter",
         harness::makeConfig(PolicyKind::kAccessCounter, num_gpus)},
        {"duplication",
         harness::makeConfig(PolicyKind::kDuplication, num_gpus)},
    };
}

/** Uniform schemes + GRIT (the Fig. 17 lineup). */
inline std::vector<harness::LabeledConfig>
mainConfigs(unsigned num_gpus = 4)
{
    auto configs = uniformConfigs(num_gpus);
    configs.push_back(
        {"grit", harness::makeConfig(harness::PolicyKind::kGrit,
                                     num_gpus)});
    return configs;
}

/** All Table II apps. */
inline std::vector<workload::AppId>
allApps()
{
    return {workload::kAllApps.begin(), workload::kAllApps.end()};
}

/** Print a normalized-speedup table (baseline column = 1.00). */
inline void
printSpeedupTable(const harness::ResultMatrix &matrix,
                  const std::string &base_label,
                  const std::vector<std::string> &labels,
                  const std::string &metric_note)
{
    std::vector<std::string> headers = {"app"};
    for (const auto &label : labels)
        headers.push_back(label);
    harness::TextTable table(headers);

    for (const auto &[app, runs] : matrix) {
        std::vector<std::string> row = {app};
        const auto base = runs.find(base_label);
        for (const auto &label : labels) {
            const auto it = runs.find(label);
            if (it == runs.end() || base == runs.end()) {
                row.push_back("-");
                continue;
            }
            row.push_back(harness::TextTable::fmt(
                harness::speedupOver(base->second, it->second)));
        }
        table.addRow(row);
    }

    std::vector<std::string> mean_row = {"MEAN"};
    for (const auto &label : labels) {
        const auto speedups =
            harness::speedupsVs(matrix, base_label, label);
        double sum = 0.0;
        for (const auto &[app, s] : speedups)
            sum += s;
        mean_row.push_back(harness::TextTable::fmt(
            speedups.empty() ? 0.0
                             : sum / static_cast<double>(speedups.size())));
    }
    table.addRow(mean_row);

    table.print(std::cout);
    std::cout << "(" << metric_note << "; normalized to " << base_label
              << ")\n";
}

}  // namespace grit::bench

#endif  // GRIT_BENCH_BENCH_UTIL_H_
