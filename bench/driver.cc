#include "driver.h"

#include <atomic>
#include <charconv>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <vector>

#include "figures.h"
#include "harness/record_log.h"
#include "harness/results_io.h"
#include "simcore/sim_error.h"

namespace grit::bench {

namespace {

/**
 * The cooperative-cancel flag SIGINT/SIGTERM handlers raise; wired
 * into every resilient sweep so in-flight runs stop between events.
 */
std::atomic<int> &
cancelFlag()
{
    static std::atomic<int> flag{0};
    return flag;
}

/** Async-signal-safe: one relaxed atomic store, nothing else. */
void
signalHandler(int sig)
{
    cancelFlag().store(sig, std::memory_order_relaxed);
}

/** Write a document through @p write to @p path, if one was given. */
void
writeJson(const std::string &path,
          const std::function<void(std::ostream &)> &write)
{
    if (path.empty())
        return;
    const auto file = openOutput(path);
    write(file ? *file : std::cout);
    if (file)
        std::cerr << "results: " << path << "\n";
}

}  // namespace

int
cancelSignal()
{
    return cancelFlag().load(std::memory_order_relaxed);
}

void
installSignalHandlers()
{
    cancelFlag().store(0, std::memory_order_relaxed);  // touch eagerly
    std::signal(SIGINT, &signalHandler);
    std::signal(SIGTERM, &signalHandler);
    std::signal(SIGPIPE, SIG_IGN);
}

workload::WorkloadParams
benchParams()
{
    workload::WorkloadParams params;
    if (const auto div =
            harness::envWhole("GRIT_FOOTPRINT_DIVISOR", 1, UINT_MAX))
        params.footprintDivisor = static_cast<unsigned>(*div);
    if (const char *env = std::getenv("GRIT_INTENSITY")) {
        const std::string text = env;
        const char *end = text.data() + text.size();
        double v = 0.0;
        const auto [ptr, ec] = std::from_chars(text.data(), end, v);
        if (ec != std::errc() || ptr != end ||
            !(v >= 0.0 && v <= workload::kMaxIntensity))
            throw sim::SimException(
                sim::ErrorCode::kBadArgument,
                "GRIT_INTENSITY needs a number from 0 to 1e6, got \"" +
                    text + "\"");
        params.intensity = v;
    }
    if (const auto seed = harness::envWhole("GRIT_SEED", 0, UINT64_MAX))
        params.seed = *seed;
    return params;
}

std::unique_ptr<std::ostream>
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

SweepFlags::SweepFlags(harness::Cli &cli) : program(cli.program())
{
    cli.flag("--jobs", &jobs, "N",
             "parallel sweep workers (0 = GRIT_JOBS env, else all cores)",
             "-j");
    cli.flag("--json", &jsonPath, "PATH",
             "write the grit-results JSON document (\"-\" = stdout)");
    cli.flag("--chaos", &chaosSpec, "SPEC",
             "deterministic fault injection (docs/ROBUSTNESS.md)");
    cli.flag("--audit", &audit,
             "run cross-layer invariant audits during simulation");
    cli.flag("--topology", &topologyName, "KIND",
             "interconnect topology: all-to-all, ring, switch, chiplet "
             "(docs/TOPOLOGY.md)");
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
             "event budget per run; over-budget runs are quarantined");
    cli.flag("--retries", &retries, "N",
             "re-execute quarantined runs up to N times");
    cli.flag("--sweep-stats", &sweepStats,
             "include the \"sweep\" section in --json output");
    cli.flag("--page-size", &pageSizeBytes, "BYTES",
             "base translation granule (docs/PAGESIZE.md; 0 keeps the "
             "4 KB default)");
    cli.flag("--huge-pages", &hugePagesBytes, "BYTES",
             "enable dynamic huge-page promotion with this region size "
             "(0 = off; docs/PAGESIZE.md)");
}

void
SweepFlags::resolve()
{
    if (resume && journalPath.empty())
        throw sim::SimException(sim::ErrorCode::kBadArgument,
                                "--resume requires --journal <path>");
    if (deadlineSec < 0.0)
        throw sim::SimException(
            sim::ErrorCode::kBadArgument,
            "--deadline needs a positive number of seconds");
    if (!chaosSpec.empty())
        chaos = sim::ChaosSpec::parse(chaosSpec);
    if (!topologyName.empty()) {
        topology = ic::topologyKindFromName(topologyName);
        if (!topology)
            throw sim::SimException(
                sim::ErrorCode::kBadArgument,
                "--topology: unknown topology \"" + topologyName +
                    "\" (expected all-to-all, ring, switch, or chiplet)");
    }
}

harness::SystemConfig
SweepFlags::config(harness::PolicyKind policy, unsigned num_gpus) const
{
    harness::SystemConfig config = harness::makeConfig(policy, num_gpus);
    if (pageSizeBytes != 0)
        config.geometry.baseSize = pageSizeBytes;
    if (hugePagesBytes != 0) {
        config.geometry.hugePages = true;
        config.geometry.hugeSize = hugePagesBytes;
    }
    if (pageSizeBytes != 0 || hugePagesBytes != 0)
        config.pageSizeStats = true;  // the counters the flags are for
    if (!chaosSpec.empty())
        config.chaos = chaos;
    if (audit)
        config.audit = true;
    if (topology)
        config.topology = *topology;
    if (fabricStats)
        config.fabricStats = true;
    return config;
}

int
guardedMain(harness::Cli &cli, int argc, char **argv,
            const std::function<int()> &body)
{
    installSignalHandlers();
    try {
        if (!cli.parse(argc, argv))
            return kExitFull;  // --help
        const int code = body();
        return cancelSignal() != 0 ? 128 + cancelSignal() : code;
    } catch (const sim::SimException &e) {
        std::cerr << e.error().str() << "\n";
        return kExitUsage;
    } catch (const std::exception &e) {
        std::cerr << "error [internal]: " << e.what() << "\n";
        return kExitUsage;
    }
}

int
sweepMain(const SweepFlags &flags, std::string_view title,
          const workload::WorkloadParams &params,
          const harness::RunPlan &plan,
          const std::function<void(const harness::ResultMatrix &)> &report)
{
    harness::ResilientOptions options;
    options.wallDeadlineSec = flags.deadlineSec;
    options.eventBudget = flags.eventBudget;
    options.retries = flags.retries;
    options.cancelFlag = &cancelFlag();
    harness::RecordLog journal;
    if (!flags.journalPath.empty()) {
        if (!flags.resume)
            std::remove(flags.journalPath.c_str());  // a fresh sweep
        journal.open(flags.journalPath,
                     {harness::kJournalSchema, harness::kJournalVersion,
                      flags.program});
        options.journal = &journal;
    }

    harness::ExperimentEngine::Options engine_options;
    engine_options.jobs = flags.jobs;
    harness::ExperimentEngine engine(engine_options);
    const harness::SweepResult sweep = engine.runResilient(plan, options);

    for (const harness::FailureRecord &f : sweep.failures) {
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

    report(sweep.matrix);
    writeJson(flags.jsonPath, [&](std::ostream &os) {
        harness::writeSweepResult(
            os, flags.program, title, params, sweep,
            flags.sweepStats ? &engine.traceCache() : nullptr);
    });
    return sweep.failures.empty() ? kExitFull : kExitPartialSweep;
}

int
figureMain(std::string_view name, int argc, char **argv)
{
    const Figure *figure = findFigure(name);
    if (figure == nullptr) {
        std::cerr << "error [internal]: no figure named " << name << "\n";
        return kExitUsage;
    }
    harness::Cli cli(figure->name, figure->title);

    if (figure->tables != nullptr) {
        unsigned jobs = 0;
        std::string jsonPath;
        cli.flag("--jobs", &jobs, "N",
                 "accepted for a uniform command line; a "
                 "characterization runs no sweep",
                 "-j");
        cli.flag("--json", &jsonPath, "PATH",
                 "write the grit-results JSON document (\"-\" = stdout)");
        return guardedMain(cli, argc, argv, [&] {
            const workload::WorkloadParams params = benchParams();
            const std::vector<harness::NamedTable> tables =
                figure->tables(params);
            writeJson(jsonPath, [&](std::ostream &os) {
                harness::writeResultTables(os, figure->name, figure->title,
                                           params, tables);
            });
            return kExitFull;
        });
    }

    SweepFlags flags(cli);
    return guardedMain(cli, argc, argv, [&] {
        flags.resolve();
        workload::WorkloadParams params = benchParams();
        const harness::RunPlan plan = figure->plan(flags, params);
        return sweepMain(flags, figure->title, params, plan,
                         [&](const harness::ResultMatrix &matrix) {
                             figure->report(matrix, flags);
                         });
    });
}

}  // namespace grit::bench
