/**
 * @file
 * Analytic contention models used throughout the simulator.
 *
 * The simulator composes latencies: a component "occupies" a resource and
 * receives a completion time. Because the event queue processes lanes in
 * nondecreasing time order, occupancy requests arrive in time order and a
 * simple next-free-cursor FIFO model captures serialization and queuing
 * delay without per-flit bookkeeping.
 */

#ifndef GRIT_SIMCORE_RESOURCE_H_
#define GRIT_SIMCORE_RESOURCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "simcore/types.h"

namespace grit::sim {

/**
 * A bandwidth-limited pipe (DRAM channel, NVLink port, PCIe lane...).
 *
 * A transfer of S bytes occupies one of the pipe's channels for
 * ceil(S / bytes_per_cycle) cycles starting at max(now, channel free);
 * the caller adds any fixed propagation latency itself (see
 * interconnect::Link).
 *
 * The pipe is modeled as several independent channels rather than one
 * FIFO cursor: the simulator composes latency chains that reach into
 * the near future, and a single cursor would serialize *unrelated*
 * transfers behind a future-timestamped one even at low utilization.
 * Multiple channels absorb that timestamp skew; under sustained
 * saturation all channels fill and transfers queue as expected.
 */
class BandwidthResource
{
  public:
    /**
     * @param name            diagnostic name.
     * @param bytes_per_cycle sustained bandwidth; at 1 GHz, 1 byte/cycle
     *                        equals 1 GB/s.
     * @param channels        independent full-rate channels.
     */
    BandwidthResource(std::string name, double bytes_per_cycle,
                      unsigned channels = 16);

    /**
     * Occupy the pipe for a transfer.
     * @param now   earliest start time.
     * @param bytes transfer size.
     * @return completion time of the last byte.
     */
    Cycle acquire(Cycle now, std::uint64_t bytes);

    /** Serialization delay of @p bytes with no queuing. */
    Cycle serviceCycles(std::uint64_t bytes) const;

    /** Total cycles the pipe has been busy (for utilization stats). */
    Cycle busyCycles() const { return busy_; }

    /** Total bytes moved through the pipe. */
    std::uint64_t bytesMoved() const { return bytes_; }

    /** Earliest time a new transfer could start. */
    Cycle nextFree() const;

    const std::string &name() const { return name_; }

  private:
    std::string name_;
    double bytesPerCycle_;
    std::vector<Cycle> channelFree_;
    Cycle busy_ = 0;
    std::uint64_t bytes_ = 0;
    // Single-entry memo for serviceCycles(): transfers are almost
    // always one of two sizes (a cache line or a page), and the
    // floating-point ceil-divide is measurable at millions of acquires.
    mutable std::uint64_t memoBytes_ = 0;
    mutable Cycle memoService_ = 0;
};

/**
 * A pool of identical servers with per-request service time (page-table
 * walkers, UVM fault-handling threads). Requests pick the earliest-free
 * server; a bounded queue adds back-pressure by stacking onto the
 * earliest-free server when all are busy.
 */
class ServerPool
{
  public:
    /**
     * @param name    diagnostic name.
     * @param servers number of parallel servers. @pre servers >= 1
     */
    ServerPool(std::string name, unsigned servers);

    /**
     * Occupy one server.
     * @param now     earliest start time.
     * @param service busy time for this request.
     * @return completion time.
     */
    Cycle acquire(Cycle now, Cycle service);

    /** Number of requests served. */
    std::uint64_t requests() const { return requests_; }

    /** Aggregate busy time across servers. */
    Cycle busyCycles() const { return busy_; }

    /** Aggregate queueing delay experienced by requests. */
    Cycle queueDelay() const { return queueDelay_; }

    const std::string &name() const { return name_; }

  private:
    std::string name_;
    std::vector<Cycle> freeAt_;
    std::uint64_t requests_ = 0;
    Cycle busy_ = 0;
    Cycle queueDelay_ = 0;
};

}  // namespace grit::sim

#endif  // GRIT_SIMCORE_RESOURCE_H_
