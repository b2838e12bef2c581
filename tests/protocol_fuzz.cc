/**
 * @file
 * Seeded protocol fuzzer for the simulation service (docs/SERVICE.md).
 *
 * Mutates valid grit-service request lines (byte flips, truncation,
 * splices, duplicated fields, raw garbage) and fires them at a live
 * in-process daemon over one persistent Unix-socket connection,
 * asserting the invariants the wire contract promises no matter the
 * input:
 *
 *  - every request line gets exactly one response line;
 *  - every response parses as a structured grit-service response
 *    whose status is "ok", "failed", or "error";
 *  - the connection survives (periodic pings on the SAME fd answer
 *    with the server version — nothing leaked, nothing wedged);
 *  - the server never crashes (the process runs under ASan in CI).
 *
 * The server is put into drain first, so a mutation that happens to
 * stay a valid run request is refused with a cheap structured
 * "service-draining" instead of a multi-second simulation. The same
 * mutated lines are also pushed through the parsers directly
 * (requestFromLine / responseFromLine / unframeRecord), where only a
 * structured SimException may escape.
 *
 * Usage: protocol_fuzz [--seed N] [--iterations N]
 * Exit codes: 0 all invariants held, 1 an invariant broke.
 */

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <unistd.h>

#include "harness/cli.h"
#include "harness/record_frame.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/socket.h"
#include "simcore/sim_error.h"

namespace {

using namespace grit;

std::uint64_t failures = 0;

void
complain(const std::string &what, const std::string &line)
{
    ++failures;
    std::cerr << "FUZZ VIOLATION: " << what << "\n  input: " << line
              << "\n";
}

/** The valid-line corpus the mutator starts from. */
std::vector<std::string>
corpus()
{
    std::vector<std::string> lines;
    for (const char *op : {"ping", "stats", "compact"}) {
        service::Request request;
        request.op = op;
        lines.push_back(service::requestLine(request));
    }
    service::Request run;
    run.op = "run";
    run.run.client = "fuzz";
    run.run.app = "BFS";
    run.run.policy = "grit";
    run.run.numGpus = 2;
    run.run.params.numGpus = 2;
    run.run.params.footprintDivisor = 128;
    run.run.params.intensity = 0.2;
    lines.push_back(service::requestLine(run));
    run.run.deadlineSec = 1.5;
    run.run.eventBudget = 1000;
    run.run.chaos = "drop-page:at=100";
    lines.push_back(service::requestLine(run));
    // Non-request shapes the reader may be handed by a confused peer.
    lines.push_back(harness::frameRecord("{\"op\":\"ping\"}"));
    lines.emplace_back("{}");
    lines.emplace_back("");
    return lines;
}

/** One seeded mutation of @p line; newline-free by construction. */
std::string
mutate(std::string line, std::mt19937_64 &rng)
{
    const auto pick = [&rng](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
    };
    const unsigned rounds = 1 + static_cast<unsigned>(rng() % 4);
    for (unsigned r = 0; r < rounds; ++r) {
        switch (rng() % 6) {
        case 0:  // flip a byte
            if (!line.empty())
                line[pick(line.size())] = static_cast<char>(rng() % 256);
            break;
        case 1:  // truncate
            if (!line.empty())
                line.resize(pick(line.size()));
            break;
        case 2:  // insert a random byte
            line.insert(line.begin() +
                            static_cast<std::ptrdiff_t>(
                                pick(line.size() + 1)),
                        static_cast<char>(rng() % 256));
            break;
        case 3: {  // splice a keyword fragment somewhere
            static const char *kFragments[] = {
                "\"op\":\"run\"",   "\"version\":1,", "}",
                "{",                "\\u0000",        "\"schema\":",
                "99999999999999999999",
            };
            const char *frag = kFragments[rng() % 7];
            line.insert(pick(line.size() + 1), frag);
            break;
        }
        case 4:  // duplicate the line onto itself
            line += line.substr(0, pick(line.size() + 1));
            break;
        default:  // shuffle a small window
            if (line.size() >= 8) {
                const std::size_t at = pick(line.size() - 4);
                std::swap(line[at], line[at + 3]);
                std::swap(line[at + 1], line[at + 2]);
            }
            break;
        }
    }
    // One request per line: the transport frames on '\n', so a mutated
    // payload must stay newline-free to keep 1 request == 1 response.
    std::string out;
    out.reserve(line.size());
    for (const char c : line)
        if (c != '\n' && c != '\r')
            out.push_back(c);
    return out;
}

/** The parsers must either succeed or throw SimException — nothing
 *  else, under any input. */
void
fuzzParsers(const std::string &line)
{
    try {
        (void)service::requestFromLine(line);
    } catch (const sim::SimException &) {
    } catch (const std::exception &e) {
        complain(std::string("requestFromLine leaked ") + e.what(),
                 line);
    }
    try {
        (void)service::responseFromLine(line);
    } catch (const sim::SimException &) {
    } catch (const std::exception &e) {
        complain(std::string("responseFromLine leaked ") + e.what(),
                 line);
    }
    (void)harness::unframeRecord(line);  // never throws
}

}  // namespace

int
main(int argc, char **argv)
{
    harness::Cli cli("protocol_fuzz",
                     "seeded fuzzer of the grit-service wire protocol");
    std::uint64_t seed = 1;
    std::uint64_t iterations = 2000;
    cli.flag("--seed", &seed, "N", "fuzzer RNG seed");
    cli.flag("--iterations", &iterations, "N", "mutated lines to send");
    if (!cli.parse(argc, argv))
        return 0;

    std::mt19937_64 rng(seed);
    const std::vector<std::string> base = corpus();

    // Socket under TMPDIR: sun_path is ~107 bytes, build trees exceed
    // it. Seed-keyed so concurrent fuzzers never collide.
    const char *tmpdir = std::getenv("TMPDIR");
    const std::string socketPath =
        std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
        "/grit_fuzz_" + std::to_string(::getpid()) + "_" +
        std::to_string(seed) + ".sock";

    service::Server::Options options;
    options.socketPath = socketPath;
    options.workers = 1;
    options.maxLineBytes = 1 << 16;
    service::Server server(std::move(options));
    server.start();
    // Drain: any mutation that is STILL a valid run request gets a
    // cheap structured "service-draining" instead of a real multi-
    // second simulation. ok/error classification is all we fuzz.
    server.beginDrain();

    const int fd = service::connectUnix(socketPath);
    if (fd < 0) {
        std::cerr << "cannot connect to " << socketPath << "\n";
        return 1;
    }

    service::LineReader reader(fd);
    const auto readReply = [&reader](std::string &reply) {
        return reader.next(reply, std::numeric_limits<std::size_t>::max()) ==
               service::LineReader::Status::kLine;
    };

    service::Request ping;
    ping.op = "ping";
    const std::string pingLine = service::requestLine(ping);

    std::uint64_t answered = 0;
    for (std::uint64_t i = 0; i < iterations; ++i) {
        const std::string line =
            mutate(base[rng() % base.size()], rng);
        fuzzParsers(line);

        if (!service::writeLine(fd, line)) {
            complain("connection died on write", line);
            break;
        }
        std::string reply;
        if (!readReply(reply)) {
            complain("no response line (connection dropped)", line);
            break;
        }
        try {
            const service::Response response =
                service::responseFromLine(reply);
            if (response.status != "ok" &&
                response.status != "failed" &&
                response.status != "error")
                complain("unknown response status '" +
                             response.status + "'",
                         line);
            if (response.status == "error" &&
                !response.error.has_value())
                complain("error response carries no diagnostic", line);
        } catch (const sim::SimException &e) {
            complain(std::string("unparseable server response: ") +
                         e.error().str() + " <- " + reply,
                     line);
        }
        ++answered;

        // Liveness heartbeat on the SAME connection: the server must
        // still answer structured pings between garbage bursts.
        if (i % 256 == 255) {
            if (!service::writeLine(fd, pingLine) ||
                !readReply(reply)) {
                complain("heartbeat ping got no response", pingLine);
                break;
            }
            const service::Response pong =
                service::responseFromLine(reply);
            if (pong.status != "ok" || !pong.ping ||
                pong.ping->version != service::Server::kVersion)
                complain("heartbeat ping answered wrong: " + reply,
                         pingLine);
        }
    }

    ::close(fd);
    server.stop();
    ::unlink(socketPath.c_str());

    std::cout << "protocol_fuzz: seed " << seed << ", " << answered
              << "/" << iterations << " lines answered, " << failures
              << " violation(s)\n";
    return failures == 0 ? 0 : 1;
}
