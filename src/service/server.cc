#include "service/server.h"

#include <bit>
#include <cstdint>
#include <string>
#include <utility>

#include <sys/socket.h>
#include <unistd.h>

#include "harness/run_journal.h"
#include "service/socket.h"

namespace grit::service {

Server::Server(Options options)
    : options_(std::move(options)), queue_(options_.queueCapacity)
{
}

Server::~Server()
{
    stop();
}

void
Server::start()
{
    if (options_.workers > kMaxWorkers)
        throw sim::SimException(
            sim::ErrorCode::kBadArgument,
            "at most " + std::to_string(kMaxWorkers) +
                " workers, got " + std::to_string(options_.workers),
            "grit-service");
    if (!options_.storePath.empty())
        store_.open(options_.storePath, {kStoreSchema, kStoreVersion, {}});
    for (unsigned i = 0; i < std::max(1u, options_.workers); ++i)
        workers_.emplace_back([this] { workerLoop(); });
    if (!options_.socketPath.empty()) {
        listenFd_ = listenUnix(options_.socketPath);
        acceptThread_ = std::jthread(
            [this](std::stop_token st) { acceptLoop(st); });
    }
}

void
Server::beginDrain()
{
    draining_.store(true, std::memory_order_relaxed);
    queue_.close();
}

void
Server::stop()
{
    bool expected = false;
    if (!stopped_.compare_exchange_strong(expected, true))
        return;
    beginDrain();
    if (acceptThread_.joinable()) {
        acceptThread_.request_stop();
        acceptThread_.join();
    }
    // Workers drain every admitted cell, so each waiting client gets
    // its response before we cut the remaining idle connections.
    for (std::jthread &worker : workers_)
        if (worker.joinable())
            worker.join();
    workers_.clear();
    std::unordered_map<std::uint64_t, std::jthread> connections;
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        for (const int fd : connFds_)
            ::shutdown(fd, SHUT_RD);  // unblock LineReader::next
        // Take the threads out from under the lock before joining:
        // an exiting connection needs connMutex_ to park its id.
        connections.swap(connections_);
    }
    connections.clear();  // jthread joins
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        finishedConnections_.clear();
    }
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        ::unlink(options_.socketPath.c_str());
        listenFd_ = -1;
    }
    store_.close();
}

ServiceCounters
Server::counters() const
{
    ServiceCounters c;
    c.requests = requests_.load(std::memory_order_relaxed);
    c.hits = hits_.load(std::memory_order_relaxed);
    c.misses = misses_.load(std::memory_order_relaxed);
    c.deduped = deduped_.load(std::memory_order_relaxed);
    c.executed = executed_.load(std::memory_order_relaxed);
    c.rejectedOverload =
        rejectedOverload_.load(std::memory_order_relaxed);
    c.rejectedDraining =
        rejectedDraining_.load(std::memory_order_relaxed);
    c.badRequests = badRequests_.load(std::memory_order_relaxed);
    c.failures = failures_.load(std::memory_order_relaxed);
    // The index survives close(), so the drain-time counters document
    // still reports how many results the store holds on disk.
    c.storeEntries = store_.size();
    const harness::ScrubStats scrub = store_.scrubStats();
    c.storeScanned = scrub.scanned;
    c.storeValid = scrub.valid;
    c.storeQuarantined = scrub.quarantined;
    c.storeTruncated = scrub.truncated;
    return c;
}

Response
Server::handle(const Request &request)
{
    Response response;
    response.status = "ok";
    if (request.op == "ping") {
        response.ping = PingInfo{kVersion, draining()};
        return response;
    }
    if (request.op == "compact") {
        if (!store_.isOpen())
            return errorResponse(sim::SimError(
                sim::ErrorCode::kBadArgument,
                "no result store configured (--store); nothing to "
                "compact",
                "grit-service"));
        store_.compact();
    } else if (request.op != "stats") {
        return handleRun(request.run);
    }
    // "stats", and "compact" with its post-compaction counters.
    response.service = counters();
    return response;
}

Response
Server::errorResponse(const sim::SimError &error)
{
    Response response;
    response.status = "error";
    response.error = error;
    return response;
}

Response
Server::handleRun(const RunRequest &request)
{
    requests_.fetch_add(1, std::memory_order_relaxed);

    harness::RunCell cell;
    try {
        cell = cellFromRequest(request);
    } catch (const sim::SimException &e) {
        badRequests_.fetch_add(1, std::memory_order_relaxed);
        return errorResponse(e.error());
    }
    const std::string fingerprint = harness::runFingerprint(cell);

    // The store is consulted even while draining: a cached result
    // costs no execution, so refusing it would only hurt clients.
    if (store_.isOpen()) {
        if (const harness::JournalEntry *hit = store_.find(fingerprint)) {
            hits_.fetch_add(1, std::memory_order_relaxed);
            Response response;
            response.status = "ok";
            response.cached = true;
            response.persisted = true;  // it came from the store
            response.entry = *hit;
            return response;
        }
    }

    // Only runs under the same constraints share an execution (see
    // Job::dedupeKey); the store lookup above is constraint-blind. The
    // deadline keys on its exact bits: printed to six decimals, any
    // deadline under a microsecond read as 0, which means none.
    const std::string dedupeKey =
        fingerprint + '|' +
        std::to_string(std::bit_cast<std::uint64_t>(request.deadlineSec)) +
        '|' + std::to_string(request.eventBudget);

    std::shared_ptr<Job> job;
    bool attached = false;
    {
        std::lock_guard<std::mutex> lock(jobsMutex_);
        const auto it = inflight_.find(dedupeKey);
        if (it != inflight_.end()) {
            job = it->second;
            attached = true;
        } else {
            job = std::make_shared<Job>();
            job->fingerprint = fingerprint;
            job->dedupeKey = dedupeKey;
            job->cell = std::move(cell);
            job->options.wallDeadlineSec = request.deadlineSec;
            job->options.eventBudget = request.eventBudget;
            inflight_[dedupeKey] = job;
            const Admission admission = queue_.push(request.client, job);
            if (admission != Admission::kAdmitted) {
                inflight_.erase(dedupeKey);
                if (admission == Admission::kFull) {
                    rejectedOverload_.fetch_add(
                        1, std::memory_order_relaxed);
                    return errorResponse(sim::SimError(
                        sim::ErrorCode::kServiceOverloaded,
                        "admission queue full (capacity " +
                            std::to_string(queue_.capacity()) +
                            "); retry with backoff",
                        "grit-service"));
                }
                rejectedDraining_.fetch_add(1,
                                            std::memory_order_relaxed);
                return errorResponse(
                    sim::SimError(sim::ErrorCode::kServiceDraining,
                                  "server is draining; no new "
                                  "admissions",
                                  "grit-service"));
            }
        }
    }
    if (attached)
        deduped_.fetch_add(1, std::memory_order_relaxed);
    else
        misses_.fetch_add(1, std::memory_order_relaxed);

    std::unique_lock<std::mutex> lock(job->mutex);
    job->cv.wait(lock, [&job] { return job->done; });

    Response response;
    response.status = job->entry.status == "ok" ? "ok" : "failed";
    response.deduped = attached;
    response.persisted = job->persisted;
    response.entry = job->entry;
    return response;
}

void
Server::workerLoop()
{
    // Waiters hold their own shared_ptr, so a popped job lives until
    // its last client has its response.
    while (const std::optional<std::shared_ptr<Job>> job = queue_.pop())
        execute(**job);
}

void
Server::execute(Job &job)
{
    harness::JournalEntry entry;
    try {
        if (options_.executionGate)
            options_.executionGate(job.fingerprint);
        // No cancel flag is set, so runCell always returns an entry.
        entry = engine_.runCell(job.cell, job.fingerprint, job.options)
                    .value();
    } catch (const std::exception &e) {
        entry.fingerprint = job.fingerprint;
        entry.row = job.cell.row;
        entry.label = job.cell.label;
        entry.status = "failed";
        entry.error = sim::SimError(sim::ErrorCode::kInternal, e.what(),
                                    "grit-service");
    }

    executed_.fetch_add(1, std::memory_order_relaxed);
    if (entry.status != "ok")
        failures_.fetch_add(1, std::memory_order_relaxed);

    // Persist before acknowledging: a client that saw "ok" must find
    // the result cached across any later crash. Only complete results
    // are stored — a failure or a salvaged partial must not poison the
    // cache. A failed append (e.g. disk full) must not be papered over
    // either: the client still gets its result, but with
    // persisted:false so it knows the durability guarantee does not
    // cover this cell.
    bool persisted = false;
    if (entry.status == "ok" && !entry.result.partial && store_.isOpen()) {
        try {
            store_.append(entry);
            persisted = true;
        } catch (const std::exception &) {
            // persisted stays false.
        }
    }

    {
        std::lock_guard<std::mutex> lock(jobsMutex_);
        inflight_.erase(job.dedupeKey);
    }
    {
        std::lock_guard<std::mutex> lock(job.mutex);
        job.done = true;
        job.persisted = persisted;
        job.entry = std::move(entry);
    }
    job.cv.notify_all();
}

void
Server::acceptLoop(const std::stop_token &st)
{
    while (!st.stop_requested()) {
        reapConnections();
        const int fd = acceptWithTimeout(listenFd_, 100);
        if (fd < 0)
            continue;
        std::lock_guard<std::mutex> lock(connMutex_);
        connFds_.insert(fd);
        const std::uint64_t id = nextConnectionId_++;
        connections_.emplace(
            id, std::jthread([this, fd, id] { serveConnection(fd, id); }));
    }
}

void
Server::reapConnections()
{
    // Joining happens on `done`'s destruction, after connMutex_ is
    // released — an exiting thread still briefly holds the lock to
    // park its id, so joining under it would deadlock.
    std::vector<std::jthread> done;
    std::lock_guard<std::mutex> lock(connMutex_);
    for (const std::uint64_t id : finishedConnections_) {
        const auto it = connections_.find(id);
        if (it != connections_.end()) {
            done.push_back(std::move(it->second));
            connections_.erase(it);
        }
    }
    finishedConnections_.clear();
}

void
Server::serveConnection(int fd, std::uint64_t id)
{
    LineReader reader(fd);
    std::string line;
    while (true) {
        const LineReader::Status status =
            reader.next(line, options_.maxLineBytes);
        if (status == LineReader::Status::kEof)
            break;
        Response response;
        if (status == LineReader::Status::kTooLong) {
            // The oversized line was discarded, never buffered whole:
            // answer structurally and keep serving the connection.
            badRequests_.fetch_add(1, std::memory_order_relaxed);
            response = errorResponse(sim::SimError(
                sim::ErrorCode::kBadArgument,
                "request line exceeds " +
                    std::to_string(options_.maxLineBytes) +
                    " bytes (--max-line)",
                "grit-service wire"));
            if (!writeLine(fd, responseLine(response)))
                break;
            continue;
        }
        try {
            response = handle(requestFromLine(line));
        } catch (const sim::SimException &e) {
            badRequests_.fetch_add(1, std::memory_order_relaxed);
            response = errorResponse(e.error());
        } catch (const std::exception &e) {
            response = errorResponse(
                sim::SimError(sim::ErrorCode::kInternal, e.what(),
                              "grit-service"));
        }
        if (!writeLine(fd, responseLine(response)))
            break;
    }
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        connFds_.erase(fd);
        // Park the thread for the accept loop's next reap pass; only
        // stop() joins connections directly.
        finishedConnections_.push_back(id);
    }
    ::close(fd);
}

}  // namespace grit::service
