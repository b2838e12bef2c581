/**
 * @file
 * serve_mix: an in-process service::Server (2 workers, a Unix socket,
 * a result store in a fresh directory) driven by 2 closed-loop
 * service::Client threads. A seeded, shuffled request stream asks
 * many times for each of 64 default-scale cells (8 apps x 4 policies
 * x 2 seeds): per round, the first request for a cell executes and
 * fsyncs it, a fixed few dedupe onto that execution, the rest are
 * store hits. The only workload that exercises the protocol, the
 * result store and dedupe.
 */

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "harness/run_journal.h"
#include "service/client.h"
#include "service/server.h"
#include "simcore/rng.h"
#include "workload/apps.h"

namespace perfbench {

namespace {

using grit::service::Client;
using grit::service::Request;
using grit::service::Response;
using grit::service::RunRequest;
using grit::service::Server;

constexpr unsigned kServerWorkers = 2;
constexpr unsigned kClients = 2;
/**
 * Requests per cell per round: 64 cells x 16 (+ kDedupes) = 1028
 * requests, so the 64 executions (6 %) hold p99 with more than 10
 * requests beyond it while store hits hold p50.
 */
constexpr unsigned kCopies = 16;
/**
 * Requests per round that dedupe onto another's execution: the stream
 * opens with this many pairs that name the same cell twice. The two
 * clients start together and a pair's reply frees both at once, so
 * each takes one request of every pair, and the second attaches to
 * the first one's execution while the other server worker idles.
 */
constexpr unsigned kDedupes = 4;
/**
 * Server start-ups timed per run besides one per round. Each costs up
 * to 0.1 s more to stop (the accept loop's poll interval), hence the
 * larger budget.
 */
constexpr int kSetupSamples = 30;
constexpr double kSetupBudgetSec = 3.0;
constexpr const char *kPolicies[] = {"on-touch", "access-counter",
                                     "duplication", "grit"};

struct Cell
{
    std::string key;
    RunRequest request;
};

std::vector<Cell>
makeCells(const Options &options)
{
    std::vector<Cell> cells;
    for (const auto app : grit::workload::kAllApps)
        for (const char *policy : kPolicies)
            for (const std::uint64_t index : {0, 1}) {
                Cell cell;
                cell.request.app = grit::workload::appMeta(app).abbr;
                cell.request.policy = policy;
                cell.request.numGpus = 4;
                cell.request.params.numGpus = 4;
                cell.request.params.seed = 2 * options.seed + index;
                if (options.smoke) {
                    cell.request.params.footprintDivisor = 128;
                    cell.request.params.intensity = 0.2;
                }
                // Keyed by the seed's index, not its value, so a check
                // against another seed's record compares the same cells.
                cell.key = cell.request.app + "/" + policy + "/seed" +
                           std::to_string(index);
                cells.push_back(std::move(cell));
            }
    return cells;
}

/**
 * Round @p round's request stream: kCopies blocks, each asking for
 * every cell once in its own seeded shuffle, so all executions fall in
 * the first block, where both clients keep both server workers busy,
 * except that the block opens with kDedupes pairs.
 */
std::vector<std::size_t>
requestOrder(std::size_t cells, std::uint64_t seed, unsigned round)
{
    grit::sim::Rng rng((seed * 0x9e3779b97f4a7c15ULL + round) ^
                       0x5e17e5eedULL);
    std::vector<std::size_t> order;
    for (unsigned c = 0; c < kCopies; ++c) {
        const std::size_t begin = order.size();
        for (std::size_t i = 0; i < cells; ++i)
            order.push_back(i);
        for (std::size_t i = cells - 1; i > 0; --i)
            std::swap(order[begin + i], order[begin + rng.below(i + 1)]);
    }
    for (std::size_t d = 0; d < kDedupes; ++d) {
        const std::size_t cell = order[2 * d];
        order.insert(order.begin() + 2 * d + 1, cell);
    }
    return order;
}

/** One answered (or failed) request. */
struct Served
{
    double ms = 0.0;
    std::optional<Response> response;
    std::string error;  //!< the client threw
};

/** What one round produced besides its served requests. */
struct Round
{
    double setupSec = 0.0;
    double seconds = 0.0;   //!< first request to last response
    grit::service::ServiceCounters counters;
    std::uintmax_t storeBytes = 0;
    std::vector<Served> served;
};

/** A fresh directory for server @p index of this process. */
std::filesystem::path
serverDir(const Options &options, unsigned index)
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(options.scratchDir) /
                         ("serve-" + std::to_string(::getpid()) + "-" +
                          std::to_string(index));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

Server::Options
serverOptions(const std::filesystem::path &dir)
{
    Server::Options options;
    options.socketPath = (dir / "grit.sock").string();
    options.storePath = (dir / "store.jsonl").string();
    options.workers = kServerWorkers;
    return options;
}

/**
 * The service's set-up: Server::start until the first ping answers.
 * Returns its seconds.
 */
double
startServer(Server &server, const std::string &socket_path,
            SpanRecorder *recorder)
{
    const auto start = Clock::now();
    {
        ScopedSpan span(recorder, "service.start", "server");
        server.start();
    }
    Client client({socket_path});
    Request ping;
    ping.op = "ping";
    if (client.submit(ping).status != "ok")
        throw std::runtime_error("the server did not answer ping");
    return secondsSince(start);
}

Round
runRound(const Options &options, const std::vector<Cell> &cells,
         const std::vector<std::size_t> &order, unsigned index,
         SpanRecorder *recorder)
{
    namespace fs = std::filesystem;
    const fs::path dir = serverDir(options, index);
    const Server::Options config = serverOptions(dir);

    Round round;
    Server server(config);
    round.setupSec = startServer(server, config.socketPath, recorder);

    round.served.resize(order.size());
    std::atomic<std::size_t> next{0};
    const auto phase = Clock::now();
    {
        std::vector<std::jthread> clients;
        for (unsigned k = 0; k < kClients; ++k)
            clients.emplace_back([&, k] {
                Client client({config.socketPath});
                for (std::size_t i = next.fetch_add(1); i < order.size();
                     i = next.fetch_add(1)) {
                    Request request;
                    request.op = "run";
                    request.run = cells[order[i]].request;
                    request.run.client = "client" + std::to_string(k);
                    Served &out = round.served[i];
                    const auto sent = Clock::now();
                    try {
                        ScopedSpan span(recorder, "service.submit",
                                        "request" + std::to_string(i));
                        out.response = client.submit(request);
                    } catch (const std::exception &e) {
                        out.error = e.what();
                    }
                    out.ms = secondsSince(sent) * 1e3;
                    if (recorder && out.response && out.response->entry) {
                        ScopedSpan span(recorder, "stats.serialize",
                                        "request" + std::to_string(i));
                        (void)grit::harness::journalLine(
                            *out.response->entry);
                    }
                }
            });
    }  // jthreads join
    round.seconds = secondsSince(phase);
    round.counters = server.counters();
    std::error_code ec;
    round.storeBytes = fs::file_size(config.storePath, ec);
    server.stop();
    fs::remove_all(dir, ec);
    return round;
}

/**
 * Check every served request; returns the round's simulated accesses
 * (each cell's accesses once: one execution per cell per round).
 */
std::uint64_t
checkRound(const Round &round, const std::vector<Cell> &cells,
           const std::vector<std::size_t> &order, Report &report,
           const std::string &phase, LayerCounts *counts)
{
    std::vector<bool> seen(cells.size(), false);
    std::uint64_t accesses = 0;
    for (std::size_t i = 0; i < order.size(); ++i) {
        const Served &s = round.served[i];
        const Cell &cell = cells[order[i]];
        ++report.attempted;
        if (!s.response) {
            report.fail(phase + ": " + cell.key + " client error: " +
                        s.error);
            continue;
        }
        const Response &r = *s.response;
        if (r.status != "ok" || !r.entry || !r.entry->hasResult) {
            report.fail(phase + ": " + cell.key + " status " + r.status +
                        (r.error ? " " + r.error->str() : ""));
            continue;
        }
        report.checkDigest(cell.key, resultDigest(r.entry->result), phase);
        if (!seen[order[i]]) {
            seen[order[i]] = true;
            accesses += r.entry->result.accesses;
            if (counts)
                counts->add(r.entry->result);
        }
    }
    return accesses;
}

}  // namespace

void
runServe(const Options &options, Report &report)
{
    const std::vector<Cell> cells = makeCells(options);

    // Set-up samples without a request stream: the median of several is
    // steadier than the one per round (each start creates and fsyncs a
    // fresh store).
    unsigned index = 0;
    sampleSetUps(report, kSetupSamples, kSetupBudgetSec, [&] {
        const auto dir = serverDir(options, index++);
        const Server::Options config = serverOptions(dir);
        Server server(config);
        const double seconds =
            startServer(server, config.socketPath, nullptr);
        server.stop();
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
        return seconds;
    });

    // One untimed round first, as in fig17_sweep: a process's first
    // round ran up to 25 % slower than the rest. Its results are checked.
    {
        const auto order = requestOrder(cells.size(), options.seed, 0);
        const Round round = runRound(options, cells, order, index++,
                                     nullptr);
        checkRound(round, cells, order, report, "warm-up", nullptr);
    }

    std::vector<double> roundSeconds;
    const auto phase = Clock::now();
    do {
        report.beginRep();
        const auto order = requestOrder(cells.size(), options.seed,
                                        report.reps.size() + 1);
        const Round round = runRound(options, cells, order, index++,
                                     nullptr);
        report.setupSeconds.push_back(round.setupSec);
        for (const Served &s : round.served)
            report.latencyMs.push_back(s.ms);
        const std::uint64_t accesses =
            checkRound(round, cells, order, report, "timed", nullptr);
        report.addRep({round.seconds, accesses, order.size()});
        roundSeconds.push_back(round.seconds);
        report.notes.push_back(
            "round " + std::to_string(report.reps.size()) + ": " +
            std::to_string(round.counters.hits) + " hits, " +
            std::to_string(round.counters.executed) + " executed, " +
            std::to_string(round.counters.deduped) + " deduped");
    } while (secondsSince(phase) < options.seconds);

    if (!options.trace)
        return;

    // The traced round replays the warm-up round's stream.
    SpanRecorder recorder;
    const auto order = requestOrder(cells.size(), options.seed, 0);
    const Round round = runRound(options, cells, order, index, &recorder);
    report.tracedSeconds = round.seconds;
    report.untracedSeconds = median(roundSeconds);
    report.spans = recorder.spans();
    LayerCounts counts;
    report.tracedAccesses =
        checkRound(round, cells, order, report, "traced", &counts);
    counts.writeLayers(report);

    std::vector<double> hits, executed;
    for (const Served &s : round.served) {
        if (!s.response)
            continue;
        if (s.response->cached)
            hits.push_back(s.ms);
        else if (!s.response->deduped)
            executed.push_back(s.ms);
    }
    report.layers["service.hit_ms"] = median(hits);
    report.layers["service.exec_ms"] = median(executed);
    report.layers["service.hits"] =
        static_cast<double>(round.counters.hits);
    report.layers["service.executed"] =
        static_cast<double>(round.counters.executed);
    report.layers["service.deduped"] =
        static_cast<double>(round.counters.deduped);
    report.layers["service.store_bytes"] =
        static_cast<double>(round.storeBytes);
}

}  // namespace perfbench
