/**
 * @file
 * Deterministic, seed-driven fault injection for chaos runs.
 *
 * A ChaosSpec describes a set of perturbations (link flaps, degraded
 * link bandwidth, inflated fault-service latency, capacity-pressure
 * eviction storms, PA-Cache flushes/disables) parsed from a compact
 * textual grammar (see docs/ROBUSTNESS.md). The FaultInjector answers
 * point-in-time queries from the layers it is wired into (fabric, UVM
 * driver, GRIT policy) and tallies injected/recovered events.
 *
 * Determinism contract: every decision is a pure function of
 * (spec seed, perturbation stream, time window) computed with a
 * stateless splitmix-style hash — never a sequential RNG — so a chaos
 * run is bit-identical regardless of how many experiment threads run
 * concurrently or in which order simulators are constructed.
 */

#ifndef GRIT_SIMCORE_FAULT_INJECTOR_H_
#define GRIT_SIMCORE_FAULT_INJECTOR_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "simcore/sim_error.h"
#include "simcore/types.h"

namespace grit::sim {

/**
 * Parsed chaos specification. Clauses are semicolon-separated,
 * parameters comma-separated `key=value` pairs:
 *
 *   seed=N
 *   linkflap:period=P,duty=D[,prob=Q]   - links down for the first D*P
 *                                         cycles of a window with
 *                                         probability Q (per link)
 *   linkslow:factor=K[,period=P,duty=D] - transfers serialize K x
 *                                         slower during active windows
 *   svclat:extra=C[,period=P,duty=D]    - +C cycles of fault-service
 *                                         latency during active windows
 *   pressure:pages=N,period=P[,start=S] - force-evict N LRU pages per
 *                                         GPU every P cycles from S on
 *   promostorm:period=P[,start=S]       - splinter every promoted huge
 *                                         region every P cycles from S
 *                                         on (inert unless dynamic huge
 *                                         pages are enabled)
 *   paflush:period=P                    - drop all PA-Cache state every
 *                                         P cycles
 *   padisable:start=S[,end=E]           - PA-Cache unavailable during
 *                                         [S, E); policy falls back to
 *                                         the in-memory PA-Table
 *   hang:at=C                           - spin the event loop at cycle
 *                                         C without advancing simulated
 *                                         time (a deliberate livelock
 *                                         for watchdog/quarantine
 *                                         drills)
 *   store-bitflip:seed=S[,flips=N]      - flip N seeded bytes of a
 *                                         persistence file (result
 *                                         store / journal); consumed by
 *                                         grit_serve --corrupt, never
 *                                         by the simulation itself
 *
 * Every number is a non-negative integer that fits 64 bits; K, N and
 * C must also fit 32 bits (at most 4294967295).
 *
 * A default-constructed spec injects nothing (any() == false).
 */
struct ChaosSpec
{
    std::uint64_t seed = 1;

    struct LinkFlap
    {
        Cycle period = 0;   //!< window length; 0 disables the clause
        double duty = 0.1;  //!< fraction of each window the link is down
        double prob = 1.0;  //!< chance a given link flaps in a window
    } linkFlap;

    struct LinkSlow
    {
        unsigned factor = 1;  //!< serialization multiplier; 1 disables
        Cycle period = 0;     //!< window length; 0 means "always"
        double duty = 1.0;    //!< active fraction of each window
    } linkSlow;

    struct ServiceDelay
    {
        Cycle extra = 0;  //!< added fault-service cycles; 0 disables
        Cycle period = 0; //!< window length; 0 means "always"
        double duty = 1.0;
    } serviceDelay;

    struct Pressure
    {
        unsigned pages = 0;  //!< LRU pages force-evicted per GPU; 0 off
        Cycle period = 0;    //!< storm period; 0 disables the clause
        Cycle start = 0;     //!< first storm time
    } pressure;

    struct PromoteStorm
    {
        Cycle period = 0;  //!< storm period; 0 disables the clause
        Cycle start = 0;   //!< first storm time
    } promoteStorm;

    struct PaFlush
    {
        Cycle period = 0;  //!< flush period; 0 disables the clause
    } paFlush;

    struct PaDisable
    {
        Cycle start = kNever;  //!< kNever disables the clause
        Cycle end = kNever;    //!< exclusive; kNever = rest of run
    } paDisable;

    struct Hang
    {
        Cycle at = kNever;  //!< cycle the livelock starts; kNever off
    } hang;

    /**
     * Persistence-layer corruption (store-bitflip clause), applied by
     * tooling to a store/journal file between daemon runs — never by
     * the simulation itself. Deliberately excluded from any() and from
     * configDigest(): the clause perturbs files, not results, so it
     * must not change fingerprints or make a run count as chaotic.
     */
    struct StoreBitflip
    {
        std::uint64_t seed = 0;  //!< 0 = fall back to the spec seed
        unsigned flips = 0;      //!< bytes flipped; 0 disables
    } storeBitflip;

    static constexpr Cycle kNever = ~Cycle{0};

    /** True when any clause can perturb a run (store-bitflip aside). */
    bool any() const;

    /**
     * Parse @p text in the grammar above. Throws
     * SimException(ErrorCode::kChaosSpec) with the offending clause in
     * the message on malformed input. Empty text yields an inert spec.
     */
    static ChaosSpec parse(const std::string &text);

    /** Compact canonical description for logs ("linkflap+pressure"). */
    std::string summary() const;
};

/**
 * Per-Simulator chaos oracle. Wired by the harness into the fabric,
 * UVM driver, and GRIT policy; each layer queries it at decision
 * points and reports how it degraded gracefully so the counters tell
 * the full injected-vs-recovered story.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(const ChaosSpec &spec) : spec_(spec) {}

    const ChaosSpec &spec() const { return spec_; }
    bool enabled() const { return spec_.any(); }

    // -- fabric hooks -------------------------------------------------
    /** Is the (src, dst) link down at @p now? Pure in (spec, args). */
    bool linkDown(GpuId src, GpuId dst, Cycle now) const;
    /** Serialization multiplier for a transfer starting at @p now. */
    unsigned linkSlowFactor(GpuId src, GpuId dst, Cycle now) const;
    /** A transfer found its link down and is backing off. */
    void noteLinkRetry() { ++linkRetries_; }
    /** A backed-off transfer eventually went through. */
    void noteLinkRecovered() { ++linkRecoveries_; }
    /** Retries exhausted; the transfer was forced through degraded. */
    void noteLinkForced() { ++linkForced_; }
    /** A transfer was serialized @p factor x slower. */
    void noteSlowTransfer() { ++slowTransfers_; }

    // -- UVM-driver hooks ---------------------------------------------
    /** Extra fault-service cycles to add at @p now (0 when inactive). */
    Cycle extraServiceCycles(Cycle now) const;
    void noteServiceDelay() { ++serviceDelays_; }
    /** Is a capacity-pressure storm configured? */
    bool pressureConfigured() const
    {
        return spec_.pressure.pages > 0 && spec_.pressure.period > 0;
    }
    /** Has the capacity-pressure storm window opened by @p now? */
    bool pressureActive(Cycle now) const
    {
        return pressureConfigured() && now >= spec_.pressure.start;
    }
    /** Migration fell back to a remote mapping (target GPU full). */
    void noteMigrationFallback() { ++migrationFallbacks_; }
    /** Pressure storm force-evicted @p pages pages. */
    void notePressureEvictions(std::uint64_t pages)
    {
        pressureEvictions_ += pages;
    }
    /** Is a promotion-splinter storm configured? */
    bool promoteStormConfigured() const
    {
        return spec_.promoteStorm.period > 0;
    }
    /** Promotion storm splintered @p regions huge mappings. */
    void notePromoteSplinters(std::uint64_t regions)
    {
        promoteSplinters_ += regions;
    }

    // -- PA-Cache hooks -----------------------------------------------
    /** Is the PA-Cache chaos-disabled at @p now? */
    bool paCacheDown(Cycle now) const;
    /**
     * True exactly once per paflush period boundary; the caller must
     * then drop PA-Cache state. Stateful, but only queried from the
     * owning simulator's single-threaded event loop, so deterministic.
     */
    bool paFlushDue(Cycle now);
    void notePaFlush() { ++paFlushes_; }
    /** A fault was recorded via the PA-Table fallback path. */
    void notePaTableFallback() { ++paTableFallbacks_; }

    // -- reporting ----------------------------------------------------
    /** Total perturbations injected (denominators for recovery rate). */
    std::uint64_t injectedTotal() const;
    /** Total graceful-degradation events (retries that succeeded,
     *  fallbacks taken, storms absorbed). */
    std::uint64_t recoveredTotal() const;
    /**
     * All chaos counters as (name, value) pairs in a fixed order,
     * ready to merge into a StatSet ("chaos." prefix included).
     */
    std::vector<std::pair<std::string, std::uint64_t>> counters() const;

  private:
    /** Stateless [0, 1) hash of (seed, stream, window). */
    double unit(std::uint64_t stream, std::uint64_t window) const;
    /** Stream id unique per (clause, link); GpuId may be kHostId. */
    static std::uint64_t linkStream(std::uint64_t clause, GpuId src,
                                    GpuId dst);

    ChaosSpec spec_;
    std::uint64_t linkRetries_ = 0;
    std::uint64_t linkRecoveries_ = 0;
    std::uint64_t linkForced_ = 0;
    std::uint64_t slowTransfers_ = 0;
    std::uint64_t serviceDelays_ = 0;
    std::uint64_t migrationFallbacks_ = 0;
    std::uint64_t pressureEvictions_ = 0;
    std::uint64_t promoteSplinters_ = 0;
    std::uint64_t paFlushes_ = 0;
    std::uint64_t paTableFallbacks_ = 0;
    std::uint64_t lastPaFlushWindow_ = 0;
};

}  // namespace grit::sim

#endif  // GRIT_SIMCORE_FAULT_INJECTOR_H_
