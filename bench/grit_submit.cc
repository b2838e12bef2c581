/**
 * @file
 * Thin client of the simulation service (docs/SERVICE.md).
 *
 * Usage: grit_submit --socket PATH [APP] [POLICY] [flags]
 *
 * Submits one run request to a grit_serve daemon and prints the
 * outcome; `--json` writes the same grit-results document a local
 * diag_run of the cell would produce — byte-identical whether the
 * daemon executed the cell, deduplicated it onto an in-flight
 * execution, or served it from the result store. Unreachable daemons
 * and "service-overloaded" shedding are retried `--retries` times
 * with capped exponential backoff and deterministic jitter.
 *
 * Exit codes: 0 run complete (also --ping/--stats/--compact), 2 usage
 * error or
 * request refused (bad request, draining, overloaded after retries,
 * daemon unreachable), 3 run executed but failed (the structured
 * diagnostic and any salvaged partial counters are reported).
 */

#include <iostream>

#include "driver.h"
#include "harness/results_io.h"
#include "service/client.h"

static int
run(int argc, char **argv)
{
    using namespace grit;

    harness::Cli cli("grit_submit",
                     "submit one run to a grit_serve daemon");
    std::string socketPath;
    std::string appName = "BFS";
    std::string kindName = "on-touch";
    std::string clientId = "grit_submit";
    unsigned numGpus = 4;
    double deadlineSec = 0.0;
    std::uint64_t eventBudget = 0;
    std::string chaosSpec;
    bool audit = false;
    unsigned retries = 0;
    std::uint64_t backoffMs = 50;
    std::string jsonPath;
    bool ping = false;
    bool stats = false;
    bool compact = false;
    cli.positional("APP", &appName,
                   "Table II application abbreviation (default BFS)",
                   /*required=*/false);
    cli.positional("POLICY", &kindName,
                   "placement policy, e.g. grit or on-touch (default "
                   "on-touch)",
                   /*required=*/false);
    cli.flag("--socket", &socketPath, "PATH",
             "grit_serve Unix socket (required)");
    cli.flag("--client", &clientId, "ID",
             "fair-share client id (defaults to the binary name)");
    cli.flag("--gpus", &numGpus, "N", "GPU count for the run");
    cli.flag("--deadline", &deadlineSec, "SEC",
             "per-request wall-clock budget; an over-budget run comes "
             "back failed with salvaged partial counters");
    cli.flag("--event-budget", &eventBudget, "N",
             "per-request executed-event budget");
    cli.flag("--chaos", &chaosSpec, "SPEC",
             "deterministic fault injection (docs/ROBUSTNESS.md)");
    cli.flag("--audit", &audit,
             "run cross-layer invariant audits during simulation");
    cli.flag("--retries", &retries, "N",
             "retry connect failures and overload shedding N times");
    cli.flag("--backoff-ms", &backoffMs, "MS",
             "base retry backoff (doubles per attempt, jittered)");
    cli.flag("--json", &jsonPath, "PATH",
             "write the run's grit-results document (\"-\" = stdout)");
    cli.flag("--ping", &ping,
             "liveness check only (prints version + drain state)");
    cli.flag("--stats", &stats, "print the daemon's service counters");
    cli.flag("--compact", &compact,
             "ask the daemon to compact its result store");

    if (!cli.parse(argc, argv))
        return grit::bench::kExitFull;  // --help
    if (socketPath.empty())
        throw sim::SimException(sim::ErrorCode::kBadArgument,
                                "--socket <path> is required",
                                "grit_submit");

    service::Client::Options options;
    options.socketPath = socketPath;
    options.retries = retries;
    options.backoffBaseMs = backoffMs;
    service::Client client(options);

    service::Request request;
    if (ping) {
        request.op = "ping";
        const service::Response response = client.submit(request);
        std::cout << "pong " << (response.status == "ok" ? 1 : 0)
                  << "\n";
        if (response.ping)
            std::cout << "version " << response.ping->version
                      << "\ndraining "
                      << (response.ping->draining ? 1 : 0) << "\n";
        return response.status == "ok" ? grit::bench::kExitFull
                                       : grit::bench::kExitUsage;
    }
    if (compact) {
        request.op = "compact";
        const service::Response response = client.submit(request);
        if (response.status != "ok") {
            const sim::SimError error =
                response.error
                    ? *response.error
                    : sim::SimError(sim::ErrorCode::kInternal,
                                    "compact request refused");
            std::cerr << error.str() << "\n";
            return grit::bench::kExitUsage;
        }
        std::cout << "compacted 1\n";
        if (response.service)
            std::cout << "store_entries "
                      << response.service->storeEntries << "\n";
        return grit::bench::kExitFull;
    }
    if (stats) {
        request.op = "stats";
        const service::Response response = client.submit(request);
        if (response.status != "ok" || !response.service)
            throw sim::SimException(sim::ErrorCode::kInternal,
                                    "stats request refused",
                                    socketPath);
        const service::ServiceCounters &c = *response.service;
        for (const service::ServiceCounterField &field :
             service::kServiceCounterFields)
            std::cout << "service." << field.name << " " << c.*field.member
                      << "\n";
        return grit::bench::kExitFull;
    }

    request.op = "run";
    request.run.client = clientId;
    request.run.app = appName;
    request.run.policy = kindName;
    request.run.numGpus = numGpus;
    request.run.params = grit::bench::benchParams();
    request.run.params.numGpus = numGpus;
    request.run.deadlineSec = deadlineSec;
    request.run.eventBudget = eventBudget;
    request.run.chaos = chaosSpec;
    request.run.audit = audit;

    const service::Response response = client.submit(request);
    if (response.status == "error") {
        const sim::SimError error =
            response.error
                ? *response.error
                : sim::SimError(sim::ErrorCode::kInternal,
                                "refusal carries no diagnostic");
        std::cerr << error.str() << "\n";
        return grit::bench::kExitUsage;
    }
    if (!response.entry)
        throw sim::SimException(sim::ErrorCode::kInternal,
                                "response carries no run entry",
                                socketPath);
    const harness::JournalEntry &entry = *response.entry;

    std::cout << "status " << entry.status << "\nfingerprint "
              << entry.fingerprint << "\ncached " << (response.cached ? 1 : 0)
              << "\ndeduped " << (response.deduped ? 1 : 0)
              << "\npersisted " << (response.persisted ? 1 : 0) << "\n";
    if (entry.status == "ok" && !response.persisted)
        std::cerr << "warning: result not persisted by the daemon "
                     "(no store, or the store append failed) — a "
                     "restarted daemon will re-execute this cell\n";
    if (entry.error)
        std::cout << "error " << entry.error->str() << "\n";
    if (entry.hasResult) {
        std::cout << "cycles " << entry.result.cycles << "\naccesses "
                  << entry.result.accesses << "\naccesses_batched "
                  << entry.result.accessesBatched << "\n";
        if (entry.result.partial)
            std::cout << "partial 1\n";
    }

    if (!jsonPath.empty() && entry.hasResult) {
        harness::ResultMatrix matrix;
        matrix[entry.row][entry.label] = entry.result;
        auto file = grit::bench::openOutput(jsonPath);
        harness::writeResultMatrix(file ? *file : std::cout,
                                   "grit_submit",
                                   "Simulation service run",
                                   request.run.params, matrix);
        if (file)
            std::cerr << "results: " << jsonPath << "\n";
    }
    return entry.status == "ok" ? grit::bench::kExitFull
                                : grit::bench::kExitPartialSweep;
}

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const grit::sim::SimException &e) {
        std::cerr << e.error().str() << "\n";
        return grit::bench::kExitUsage;
    } catch (const std::exception &e) {
        std::cerr << "error [internal]: " << e.what() << "\n";
        return grit::bench::kExitUsage;
    }
}
