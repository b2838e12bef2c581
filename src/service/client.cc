#include "service/client.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <thread>

#include <unistd.h>

#include "service/socket.h"
#include "simcore/rng.h"

namespace grit::service {

namespace {

std::uint64_t
keyHash(const std::string &key)
{
    std::uint64_t h = 0x6a09e667f3bcc908ULL;
    for (const char c : key)
        h = sim::mix64(h ^ static_cast<unsigned char>(c));
    return h;
}

}  // namespace

std::uint64_t
backoffDelayMs(const std::string &key, unsigned attempt,
               std::uint64_t base_ms, std::uint64_t cap_ms)
{
    if (base_ms == 0)
        return 0;
    // base * 2^(attempt-1) without overflow, capped.
    std::uint64_t delay = base_ms;
    for (unsigned i = 1; i < attempt && delay < cap_ms; ++i)
        delay *= 2;
    if (delay > cap_ms)
        delay = cap_ms;
    // Deterministic jitter: keep the lower half, redraw the upper
    // half from (key, attempt) so identical schedules decorrelate.
    const std::uint64_t half = delay / 2;
    const std::uint64_t jitter =
        half == 0 ? 0 : sim::mix64(keyHash(key) ^ attempt) % (half + 1);
    return delay - half + jitter;
}

Response
Client::roundTrip(const Request &request)
{
    const int fd = connectUnix(options_.socketPath);
    if (fd < 0)
        throw sim::SimException(sim::ErrorCode::kInternal,
                                std::string("cannot connect: ") +
                                    std::strerror(errno),
                                options_.socketPath);
    // The daemon is trusted: its reply line has no ceiling.
    constexpr std::size_t kNoCeiling = std::numeric_limits<std::size_t>::max();
    LineReader reader(fd);
    std::string line;
    const bool ok = writeLine(fd, requestLine(request)) &&
                    reader.next(line, kNoCeiling) == LineReader::Status::kLine;
    ::close(fd);
    if (!ok)
        throw sim::SimException(
            sim::ErrorCode::kInternal,
            "connection closed before a response arrived",
            options_.socketPath);
    return responseFromLine(line);
}

Response
Client::submit(const Request &request)
{
    const std::string key =
        request.op == "run" ? request.run.client + "/" + request.run.app +
                                  "/" + request.run.policy
                            : request.op;
    for (unsigned attempt = 1;; ++attempt) {
        try {
            const Response response = roundTrip(request);
            const bool shed =
                response.status == "error" && response.error &&
                response.error->code ==
                    sim::ErrorCode::kServiceOverloaded;
            if (!shed || attempt > options_.retries)
                return response;
        } catch (const sim::SimException &e) {
            if (e.error().code != sim::ErrorCode::kInternal ||
                attempt > options_.retries)
                throw;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(
            backoffDelayMs(key, attempt, options_.backoffBaseMs,
                           options_.backoffCapMs)));
    }
}

}  // namespace grit::service
