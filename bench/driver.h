/**
 * @file
 * The bench driver: what every bench binary shares, compiled once into
 * the grit_bench library. It owns the exit-code contract, the
 * SIGINT/SIGTERM drain, the workload parameters (GRIT_* environment),
 * output files, the sweep command line and the config factory that
 * applies it, and the one resilient sweep of a sweep binary with its
 * "grit-results" document (docs/METRICS.md). The figures themselves
 * are data in figures.cc; EXPERIMENTS.md documents the flag sets.
 *
 * Exit-code contract (checked by the "robustness" ctest cases):
 *   0        - full sweep, every run completed (also: --help)
 *   2        - structured configuration/usage error (SimException)
 *   3        - partial sweep: at least one run was quarantined
 *   128+sig  - the sweep drained early after SIGINT/SIGTERM
 */

#ifndef GRIT_BENCH_DRIVER_H_
#define GRIT_BENCH_DRIVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>

#include "harness/cli.h"
#include "harness/config.h"
#include "harness/experiment_engine.h"
#include "interconnect/topology.h"
#include "simcore/fault_injector.h"
#include "workload/apps.h"

namespace grit::bench {

/** Exit codes of the bench binaries (see file comment). */
inline constexpr int kExitFull = 0;
inline constexpr int kExitUsage = 2;
inline constexpr int kExitPartialSweep = 3;

/** The received SIGINT/SIGTERM number; 0 while no signal arrived. */
int cancelSignal();

/**
 * Install the SIGINT/SIGTERM drain handlers. guardedMain calls it.
 * SIGPIPE is ignored: a peer hanging up mid-write must come back as
 * EPIPE from the socket layer, never terminate the process.
 */
void installSignalHandlers();

/**
 * Workload parameters for bench runs: GRIT_FOOTPRINT_DIVISOR,
 * GRIT_INTENSITY and GRIT_SEED override the defaults. Each value must
 * parse whole, the divisor must lie in [1, 2^32-1] and the intensity
 * in [0, 1e6]; anything else throws SimException (kBadArgument).
 */
workload::WorkloadParams benchParams();

/**
 * Open @p path for deterministic text output ("-" selects stdout and
 * returns nullptr). Exits with a diagnostic when the file cannot be
 * created, so a typo'd path fails loudly instead of dropping results.
 */
std::unique_ptr<std::ostream> openOutput(const std::string &path);

/**
 * The sweep command line. The constructor registers the sweep flag
 * set on a Cli: `--jobs`, `--json`, the config flags (`--chaos`,
 * `--audit`, `--topology`, `--fabric-stats`, `--page-size`,
 * `--huge-pages`) and the resilient-sweep controls (`--journal`,
 * `--resume`, `--deadline`, `--event-budget`, `--retries`,
 * `--sweep-stats`). Registration points the Cli at these members, so
 * a SweepFlags is neither copied nor moved.
 */
struct SweepFlags
{
    std::string program;            //!< journal header, JSON generator
    unsigned jobs = 0;              //!< --jobs/-j (0 = GRIT_JOBS/auto)
    std::string jsonPath;           //!< --json <path> ("-" = stdout)
    std::string chaosSpec;          //!< --chaos <spec>
    bool audit = false;             //!< --audit
    std::string topologyName;       //!< --topology <kind>
    bool fabricStats = false;       //!< --fabric-stats
    std::string journalPath;        //!< --journal <path>
    bool resume = false;            //!< --resume (with --journal)
    double deadlineSec = 0.0;       //!< --deadline <seconds>
    std::uint64_t eventBudget = 0;  //!< --event-budget <events>
    unsigned retries = 0;           //!< --retries <n> (transient only)
    bool sweepStats = false;        //!< --sweep-stats ("sweep" section)
    std::uint64_t pageSizeBytes = 0;   //!< --page-size <bytes>
    std::uint64_t hugePagesBytes = 0;  //!< --huge-pages <bytes>

    /** `--chaos`, parsed by resolve(). */
    sim::ChaosSpec chaos;
    /** `--topology`, parsed by resolve(); empty when not given. */
    std::optional<ic::TopologyKind> topology;

    explicit SweepFlags(harness::Cli &cli);
    SweepFlags(const SweepFlags &) = delete;
    SweepFlags &operator=(const SweepFlags &) = delete;

    /**
     * Enforce the cross-flag rules and parse `--chaos` and
     * `--topology`; call once after Cli::parse. Throws SimException:
     * kBadArgument for an unusable combination or an unknown
     * topology, kChaosSpec for a malformed chaos spec.
     */
    void resolve();

    /**
     * The config factory: makeConfig(@p policy, @p num_gpus) with the
     * command line applied. Every config a sweep binary runs comes from
     * here; a figure that owns an axis (geometry, fabric kind) writes
     * it afterwards. Page-size combinations are left to
     * SystemConfig::validate(), which reports them as geometry.* errors.
     */
    harness::SystemConfig config(harness::PolicyKind policy,
                                 unsigned num_gpus = 4) const;
};

/**
 * Parse the command line into @p cli's registrations, then run
 * @p body, converting structured simulator errors (unknown flag, bad
 * config, malformed chaos spec, tripped watchdog) into an actionable
 * stderr message and exit code 2 instead of an abort. `--help` prints
 * the generated flag summary and exits 0 without running the body.
 * Installs the SIGINT/SIGTERM drain handlers; once a signal arrived,
 * a body that returns exits 128+signal instead of its own code.
 */
int guardedMain(harness::Cli &cli, int argc, char **argv,
                const std::function<int()> &body);

/**
 * The one sweep of a sweep binary: run @p plan on an engine with
 * `--jobs` workers through the resilient path (`--journal`/`--resume`,
 * `--deadline`/`--event-budget`/`--retries`, SIGINT/SIGTERM drain),
 * print quarantined cells to stderr, hand the matrix (salvaged partial
 * runs included) to @p report, and write the `--json` document titled
 * @p title with @p params. Returns kExitPartialSweep when a cell was
 * quarantined, else kExitFull.
 */
int sweepMain(const SweepFlags &flags, std::string_view title,
              const workload::WorkloadParams &params,
              const harness::RunPlan &plan,
              const std::function<void(const harness::ResultMatrix &)>
                  &report);

}  // namespace grit::bench

#endif  // GRIT_BENCH_DRIVER_H_
