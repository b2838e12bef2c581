/**
 * @file
 * The simulation-service daemon: listen on a Unix socket, answer
 * grit-service requests (docs/SERVICE.md), serve completed cells from
 * the content-addressed result store, and execute misses on the
 * experiment engine behind a bounded fair-share admission queue.
 *
 * Usage: grit_serve --socket PATH [--store PATH] [--workers N]
 *                   [--queue N] [--max-line BYTES] [--json PATH]
 *        grit_serve --store PATH --compact
 *        grit_serve --store PATH --corrupt SPEC
 *
 * Lifecycle: runs until SIGINT/SIGTERM, then drains — stops admitting
 * (clients see "service-draining"), finishes every admitted cell,
 * persists the store, writes the `--json` service-counters document,
 * and exits 0. A kill -9 instead loses nothing durable: every stored
 * result was fsync'd before its client was acknowledged, so a
 * restarted daemon serves the same cells byte-identically from the
 * store (the service_smoke ctest proves this).
 *
 * Offline modes (no socket, exit immediately):
 *  --compact  scrub the store and rewrite it keeping only valid
 *             first-wins records (write-temp + fsync + atomic rename);
 *  --corrupt  seeded fault injection for recovery drills: apply the
 *             `store-bitflip` chaos clause to the store file and print
 *             what was damaged (docs/ROBUSTNESS.md).
 *
 * Exit codes: 0 clean drain / offline op done, 2 structured
 * configuration error.
 */

#include <chrono>
#include <iostream>
#include <thread>

#include "driver.h"
#include "harness/record_frame.h"
#include "harness/record_log.h"
#include "harness/results_io.h"
#include "service/server.h"
#include "simcore/fault_injector.h"

static void
writeServiceJson(const std::string &path,
                 const grit::service::ServiceCounters &c)
{
    const auto params = grit::bench::benchParams();
    auto file = grit::bench::openOutput(path);
    std::ostream &os = file ? *file : std::cout;
    grit::stats::JsonWriter json(os);
    grit::harness::beginResultsDocument(
        json, "grit_serve", "Simulation service counters", params);
    json.key("runs").beginArray().endArray();
    json.key("service");
    grit::service::writeServiceCounters(json, c);
    json.endObject();
    os << '\n';
    if (file)
        std::cerr << "results: " << path << "\n";
}

int
main(int argc, char **argv)
{
    using namespace grit;

    harness::Cli cli("grit_serve",
                     "persistent simulation daemon with a "
                     "content-addressed result store");
    std::string socketPath;
    std::string storePath;
    unsigned workers = 2;
    std::uint64_t queueCapacity = 64;
    std::uint64_t maxLineBytes = std::uint64_t{4} << 20;
    std::string jsonPath;
    bool compact = false;
    std::string corruptSpec;
    cli.flag("--socket", &socketPath, "PATH",
             "Unix socket to listen on (required unless --compact / "
             "--corrupt)");
    cli.flag("--store", &storePath, "PATH",
             "crash-safe result store (empty = no persistence)");
    cli.flag("--workers", &workers, "N",
             "executor threads draining the admission queue");
    cli.flag("--queue", &queueCapacity, "N",
             "admission-queue bound; beyond it requests are shed");
    cli.flag("--max-line", &maxLineBytes, "BYTES",
             "per-request line ceiling; longer lines are refused with "
             "bad-argument");
    cli.flag("--json", &jsonPath, "PATH",
             "write the service-counters grit-results document at "
             "drain (\"-\" = stdout)");
    cli.flag("--compact", &compact,
             "offline: scrub + rewrite --store keeping only valid "
             "first-wins records, then exit");
    cli.flag("--corrupt", &corruptSpec, "SPEC",
             "offline: apply a store-bitflip chaos clause to --store "
             "(recovery drills), then exit");

    grit::bench::installSignalHandlers();
    try {
        if (!cli.parse(argc, argv))
            return grit::bench::kExitFull;  // --help

        if (compact || !corruptSpec.empty()) {
            if (storePath.empty())
                throw sim::SimException(
                    sim::ErrorCode::kBadArgument,
                    "--compact/--corrupt need --store <path>",
                    "grit_serve");
            if (compact && !corruptSpec.empty())
                throw sim::SimException(
                    sim::ErrorCode::kBadArgument,
                    "--compact and --corrupt are mutually exclusive",
                    "grit_serve");
            if (compact) {
                harness::RecordLog store;
                store.open(storePath, {service::Server::kStoreSchema,
                                       service::Server::kStoreVersion,
                                       {}});
                const harness::ScrubStats scrub = store.scrubStats();
                const auto stats = store.compact();
                std::cout << "scanned " << scrub.scanned
                          << "\nquarantined " << scrub.quarantined
                          << "\ntruncated " << scrub.truncated
                          << "\nkept " << stats.kept
                          << "\nduplicates_dropped "
                          << stats.duplicatesDropped << "\n";
                std::cerr << "grit_serve: compacted " << storePath
                          << " (" << stats.kept << " of "
                          << stats.recordsIn << " record(s) kept)\n";
            } else {
                const sim::ChaosSpec spec =
                    sim::ChaosSpec::parse(corruptSpec);
                if (spec.storeBitflip.flips == 0)
                    throw sim::SimException(
                        sim::ErrorCode::kBadArgument,
                        "--corrupt wants a store-bitflip clause, e.g. "
                        "'store-bitflip:seed=7,flips=3'",
                        "grit_serve");
                const std::uint64_t seed = spec.storeBitflip.seed != 0
                                               ? spec.storeBitflip.seed
                                               : spec.seed;
                const harness::CorruptionReport report =
                    harness::injectBitflips(storePath, seed,
                                            spec.storeBitflip.flips);
                std::cout << "bytes_flipped " << report.bytesFlipped
                          << "\nrecords_damaged "
                          << report.damagedLines.size() << "\n";
                for (const std::uint64_t line : report.damagedLines)
                    std::cout << "damaged_line " << line << "\n";
                std::cerr << "grit_serve: corrupted " << storePath
                          << " (" << report.bytesFlipped
                          << " byte(s) across "
                          << report.damagedLines.size()
                          << " record(s))\n";
            }
            return grit::bench::kExitFull;
        }

        if (socketPath.empty())
            throw sim::SimException(sim::ErrorCode::kBadArgument,
                                    "--socket <path> is required",
                                    "grit_serve");
        if (queueCapacity == 0)
            throw sim::SimException(sim::ErrorCode::kBadArgument,
                                    "--queue must be at least 1",
                                    "grit_serve");
        if (maxLineBytes == 0)
            throw sim::SimException(sim::ErrorCode::kBadArgument,
                                    "--max-line must be at least 1",
                                    "grit_serve");

        service::Server::Options options;
        options.socketPath = socketPath;
        options.storePath = storePath;
        options.workers = workers;
        options.queueCapacity =
            static_cast<std::size_t>(queueCapacity);
        options.maxLineBytes =
            static_cast<std::size_t>(maxLineBytes);
        service::Server server(std::move(options));
        server.start();
        std::cerr << "grit_serve: listening on " << socketPath;
        if (!storePath.empty())
            std::cerr << " (store " << storePath << ", "
                      << server.store().size() << " cached result(s))";
        std::cerr << "\n";

        while (grit::bench::cancelSignal() == 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
        std::cerr << "grit_serve: draining on signal "
                  << grit::bench::cancelSignal() << "\n";
        server.stop();
        if (!jsonPath.empty())
            writeServiceJson(jsonPath, server.counters());
        return grit::bench::kExitFull;
    } catch (const sim::SimException &e) {
        std::cerr << e.error().str() << "\n";
        return grit::bench::kExitUsage;
    } catch (const std::exception &e) {
        std::cerr << "error [internal]: " << e.what() << "\n";
        return grit::bench::kExitUsage;
    }
}
