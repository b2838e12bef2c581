/**
 * @file
 * The simulation-service daemon core: accepts grit-service requests,
 * serves completed cells from the content-addressed result store,
 * deduplicates identical in-flight cells onto a single execution, and
 * executes misses with ExperimentEngine::runCell on its own workers,
 * fed through a bounded fair-share admission queue.
 *
 * End-to-end fault handling (docs/SERVICE.md):
 *  - per-request deadlines/event budgets ride the engine's cooperative
 *    watchdogs; an over-budget run returns status "failed" with
 *    salvaged partial counters, per the grit-results v2 contract;
 *  - a full admission queue sheds the request with a structured
 *    "service-overloaded" error — never a silent hang;
 *  - drain (SIGTERM / stop()) stops admitting ("service-draining"),
 *    finishes everything already admitted, persists the store, and
 *    only then returns;
 *  - every stored result was fsync'd before the requester saw it, so
 *    a kill -9 server restarts into a warm, byte-identical cache; if
 *    the append itself fails (e.g. disk full) the response still
 *    carries the result but says persisted:false — the durability
 *    guarantee is never silently claimed;
 *  - in-flight dedupe requires matching deadline/event budget (the
 *    knobs shape the outcome); mismatched constraints execute
 *    separately, while completed results dedupe by fingerprint alone.
 *
 * The class is usable fully in-process (tests drive handle() directly)
 * or as a socket daemon (start() spawns the accept loop).
 */

#ifndef GRIT_SERVICE_SERVER_H_
#define GRIT_SERVICE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "harness/experiment_engine.h"
#include "harness/record_log.h"
#include "service/protocol.h"
#include "service/request_queue.h"

namespace grit::service {

/** The daemon core. One instance per process. */
class Server
{
  public:
    /** Daemon software identity, reported by the "ping" op. */
    static constexpr const char *kVersion = "grit_serve/2";

    /** Header identity of the result-store file (no generator). */
    static constexpr const char *kStoreSchema = "grit-result-store";
    static constexpr unsigned kStoreVersion = 1;

    /** The most executor threads start() launches. */
    static constexpr unsigned kMaxWorkers = 1024;

    struct Options
    {
        /** Unix socket to listen on; empty = in-process only. */
        std::string socketPath;
        /** Result-store file; empty = no persistence (memory only). */
        std::string storePath;
        /** Executor threads draining the admission queue (at most
         *  kMaxWorkers). */
        unsigned workers = 1;
        /** Admission-queue bound; beyond it requests are shed. */
        std::size_t queueCapacity = 64;
        /**
         * Per-connection request-line byte ceiling. An over-limit
         * line is answered with a structured `bad-argument` error and
         * discarded — the reader never buffers unboundedly, and the
         * connection stays usable for the next request.
         */
        std::size_t maxLineBytes = std::size_t{4} << 20;
        /**
         * Test hook: called (with the cell fingerprint) on the worker
         * thread immediately before a cell executes. Lets tests hold
         * an execution open to provoke dedupe/overload windows
         * deterministically. A gate that throws fails the cell as
         * any execution error does. Null in production.
         */
        std::function<void(const std::string &)> executionGate;
    };

    explicit Server(Options options);
    ~Server();
    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Open the store, bind the socket (when configured), and launch
     * the worker pool and accept loop.
     * @throws sim::SimException on store/socket failure, or
     *         (kBadArgument, before any thread starts) when
     *         Options::workers exceeds kMaxWorkers.
     */
    void start();

    /**
     * Stop admitting new work: run requests that cannot be served
     * from the store are refused with "service-draining". Idempotent.
     */
    void beginDrain();

    /**
     * Graceful shutdown: drain, finish every admitted cell, answer
     * every waiting client, close the socket and the store. Safe to
     * call twice; the destructor calls it.
     */
    void stop();

    bool draining() const
    {
        return draining_.load(std::memory_order_relaxed);
    }

    /** Process one request (the socket loop and tests both use this). */
    Response handle(const Request &request);

    /** Snapshot of the service.* counters. */
    ServiceCounters counters() const;

    const harness::RecordLog &store() const { return store_; }

  private:
    /** One admitted cell; waiters block on cv until done. */
    struct Job
    {
        std::string fingerprint;
        /**
         * In-flight dedupe key: fingerprint + deadline + event budget.
         * The resilience knobs shape the *outcome* of an execution
         * (an over-budget run fails with salvaged partials), so a
         * request may only attach to an in-flight job running under
         * the same constraints — otherwise a generous client could be
         * handed a tight run's failure, or a tight client could wait
         * on an unbudgeted run. Completed results still dedupe by
         * pure fingerprint through the store.
         */
        std::string dedupeKey;
        harness::RunCell cell;
        /** The request's deadline and event budget. */
        harness::ResilientOptions options;
        std::mutex mutex;
        std::condition_variable cv;
        bool done = false;
        bool persisted = false;  //!< entry durably in the store
        harness::JournalEntry entry;
    };

    Response handleRun(const RunRequest &request);
    Response errorResponse(const sim::SimError &error);
    void workerLoop();
    void execute(Job &job);
    void acceptLoop(const std::stop_token &st);
    void serveConnection(int fd, std::uint64_t id);
    void reapConnections();

    Options options_;
    harness::RecordLog store_;
    FairShareQueue<std::shared_ptr<Job>> queue_;
    harness::ExperimentEngine engine_;
    std::atomic<bool> draining_{false};
    std::atomic<bool> stopped_{false};

    /** service.* counters (relaxed atomics; exactness per counter). */
    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> deduped_{0};
    std::atomic<std::uint64_t> executed_{0};
    std::atomic<std::uint64_t> rejectedOverload_{0};
    std::atomic<std::uint64_t> rejectedDraining_{0};
    std::atomic<std::uint64_t> badRequests_{0};
    std::atomic<std::uint64_t> failures_{0};

    std::mutex jobsMutex_;
    /** In-flight executions by Job::dedupeKey (see that comment). */
    std::unordered_map<std::string, std::shared_ptr<Job>> inflight_;

    int listenFd_ = -1;
    std::mutex connMutex_;
    std::set<int> connFds_;
    /**
     * Live connection threads by id; a thread parks its id in
     * finishedConnections_ on exit and the accept loop joins and
     * erases it, so a long-running daemon does not accumulate one
     * dead jthread per client ever served.
     */
    std::unordered_map<std::uint64_t, std::jthread> connections_;
    std::vector<std::uint64_t> finishedConnections_;
    std::uint64_t nextConnectionId_ = 0;
    std::vector<std::jthread> workers_;
    std::jthread acceptThread_;
};

}  // namespace grit::service

#endif  // GRIT_SERVICE_SERVER_H_
