/**
 * @file
 * Wire protocol of the simulation service: newline-delimited JSON
 * request/response lines exchanged over a Unix stream socket.
 *
 * One request line maps to exactly one response line; the grammar,
 * error-code vocabulary, and overload/drain semantics are documented
 * in docs/SERVICE.md. Serialization reuses the run journal's lossless
 * RunResult/SimError encoders, so a run outcome round-trips through
 * the wire byte-identically — grit_submit can emit the same
 * grit-results document a local run would have produced, whether the
 * cell was executed, deduplicated, or served from the result store.
 */

#ifndef GRIT_SERVICE_PROTOCOL_H_
#define GRIT_SERVICE_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <string>

#include "harness/experiment_engine.h"
#include "harness/run_journal.h"
#include "simcore/sim_error.h"
#include "stats/json_writer.h"
#include "workload/apps.h"

namespace grit::service {

/** Schema identifier stamped into every request and response line. */
inline constexpr const char *kSchemaName = "grit-service";
/** Bump on any incompatible wire-format change. */
inline constexpr unsigned kSchemaVersion = 1;

/** The run a client wants executed (or served from the store). */
struct RunRequest
{
    /** Fair-share queueing key; every client id gets equal turns. */
    std::string client;
    /** Table II application abbreviation ("GEMM", "BFS", ...). */
    std::string app;
    /** Placement policy name ("grit", "on-touch", ...). */
    std::string policy;
    unsigned numGpus = 4;
    workload::WorkloadParams params;
    /**
     * Per-request wall-clock deadline (seconds); 0 keeps the config
     * default. Enforced by the engine's cooperative watchdog; an
     * over-deadline run comes back status "failed" with salvaged
     * partial counters. Not part of the cell fingerprint: a cached
     * complete result satisfies any deadline.
     */
    double deadlineSec = 0.0;
    /** Per-request executed-event budget; 0 keeps the config's. */
    std::uint64_t eventBudget = 0;
    /** Chaos fault-injection spec (fingerprinted; "" = none). */
    std::string chaos;
    /** Run cross-layer invariant audits during the simulation. */
    bool audit = false;
};

/** One parsed request line. */
struct Request
{
    /** "run", "stats", "ping", or "compact". */
    std::string op;
    /** Populated when op == "run". */
    RunRequest run;
};

/** Snapshot of the server's service.* counters ("stats" op). */
struct ServiceCounters
{
    std::uint64_t requests = 0;   //!< run requests received
    std::uint64_t hits = 0;       //!< served from the result store
    std::uint64_t misses = 0;     //!< required execution (or dedupe)
    std::uint64_t deduped = 0;    //!< attached to an in-flight cell
    std::uint64_t executed = 0;   //!< cells actually simulated
    std::uint64_t rejectedOverload = 0;  //!< shed: queue full
    std::uint64_t rejectedDraining = 0;  //!< shed: server draining
    std::uint64_t badRequests = 0;       //!< malformed/unknown input
    std::uint64_t failures = 0;   //!< executions that ended "failed"
    std::uint64_t storeEntries = 0;  //!< results persisted
    // Startup-scrub tally of the result store (docs/SERVICE.md):
    std::uint64_t storeScanned = 0;      //!< records examined at open
    std::uint64_t storeValid = 0;        //!< records accepted at open
    std::uint64_t storeQuarantined = 0;  //!< corrupt records sidelined
    std::uint64_t storeTruncated = 0;    //!< torn tails cut at open
};

/** One service.* counter: its document key and its member. */
struct ServiceCounterField
{
    const char *name;
    std::uint64_t ServiceCounters::*member;
};

/**
 * Every service.* counter in document order. The wire "service" object
 * (both directions), grit_serve's drain document and
 * `grit_submit --stats` all walk this one list.
 */
inline constexpr ServiceCounterField kServiceCounterFields[] = {
    {"requests", &ServiceCounters::requests},
    {"hits", &ServiceCounters::hits},
    {"misses", &ServiceCounters::misses},
    {"deduped", &ServiceCounters::deduped},
    {"executed", &ServiceCounters::executed},
    {"rejected_overload", &ServiceCounters::rejectedOverload},
    {"rejected_draining", &ServiceCounters::rejectedDraining},
    {"bad_requests", &ServiceCounters::badRequests},
    {"failures", &ServiceCounters::failures},
    {"store_entries", &ServiceCounters::storeEntries},
    {"store_scanned", &ServiceCounters::storeScanned},
    {"store_valid", &ServiceCounters::storeValid},
    {"store_quarantined", &ServiceCounters::storeQuarantined},
    {"store_truncated", &ServiceCounters::storeTruncated},
};

/** Write @p counters as one object keyed by kServiceCounterFields. */
void writeServiceCounters(stats::JsonWriter &w,
                          const ServiceCounters &counters);

/** Liveness payload of a "ping" response. */
struct PingInfo
{
    /** Daemon software identity (Server::kVersion). */
    std::string version;
    /** True once drain began: new executions will be refused. */
    bool draining = false;
};

/** One response line. */
struct Response
{
    /**
     * "ok": the request succeeded (for "run": entry.status is "ok");
     * "failed": the run executed but was quarantined (entry carries
     * the diagnostic and any salvaged partial counters);
     * "error": the request itself was refused — error.code is one of
     * the stable kebab-case names (docs/SERVICE.md), notably
     * "service-overloaded" and "service-draining".
     */
    std::string status;
    bool cached = false;   //!< served from the result store
    bool deduped = false;  //!< shared an in-flight execution
    /**
     * The entry is durably in the result store (fsync'd append or a
     * store hit). False when the server runs without a store, for
     * failed/partial outcomes (never stored), and — crucially — when
     * the store append itself failed: the client still gets its
     * result, but must not assume a restarted daemon will remember it.
     */
    bool persisted = false;
    /** The run outcome (status "ok"/"failed" on a "run" request). */
    std::optional<harness::JournalEntry> entry;
    /** The refusal diagnostic (status "error"). */
    std::optional<sim::SimError> error;
    /** Counter snapshot ("stats" and "compact" requests). */
    std::optional<ServiceCounters> service;
    /** Version + drain state ("ping" requests). */
    std::optional<PingInfo> ping;
};

/** Serialize @p request as one wire line (no trailing newline). */
std::string requestLine(const Request &request);

/**
 * Parse one request line.
 * @throws sim::SimException (kBadArgument) on malformed JSON, an
 *         unknown op, or a schema/version mismatch.
 */
Request requestFromLine(const std::string &line);

/** Serialize @p response as one wire line (no trailing newline). */
std::string responseLine(const Response &response);

/** Parse one response line. @throws sim::SimException (kBadArgument). */
Response responseFromLine(const std::string &line);

/**
 * Resolve a run request into the engine cell it describes (row = app
 * abbreviation, label = policy name, config = makeConfig + chaos +
 * audit). The cell's runFingerprint() is the content address of the
 * result. @throws sim::SimException (kBadArgument) for unknown
 * app/policy names, (kChaosSpec) for a malformed chaos spec.
 */
harness::RunCell cellFromRequest(const RunRequest &request);

}  // namespace grit::service

#endif  // GRIT_SERVICE_PROTOCOL_H_
