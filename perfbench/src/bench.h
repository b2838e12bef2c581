/**
 * @file
 * Shared pieces of the repository benchmark (perfbench/README.md): run
 * options, the raw report each workload fills in, the in-memory span
 * recorder of the traced run, and the result digest of the output
 * check.
 *
 * The executable measures and reports raw samples; perfbench/run.py
 * turns them into the benchmark's metrics and checks the digests
 * against perfbench/expected_digests.json.
 */

#ifndef GRIT_PERFBENCH_BENCH_H_
#define GRIT_PERFBENCH_BENCH_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "harness/simulator.h"
#include "workload/trace_stream.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

/** Peak resident set size of this process, in MiB. */
double peakRssMib();

/**
 * Return freed heap to the kernel and restart the peak-RSS count at
 * the current resident size, so the next peakRssMib() covers only the
 * work in between. False when the kernel refused the reset.
 */
bool resetPeakRss();

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/** Command line of one invocation. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Measured phase length; repetitions run until it is used up. */
    double seconds = 10.0;
    /** Add the traced phase after the timed one. */
    bool trace = false;
    /** Tiny inputs (the benchmark's own smoke test). */
    bool smoke = false;
    /** Directory for the run's temporary files (serve_mix stores). */
    std::string scratchDir = ".";
};

/** One closed span: a benchmark call into a layer. */
struct Span
{
    std::string name;
    double start = 0.0;  //!< seconds since the recorder's origin
    double end = 0.0;
    std::int64_t parent = -1;  //!< index of the enclosing span, or -1
    std::string id;            //!< cell or request the span belongs to
    unsigned thread = 0;       //!< recorder-assigned thread number
};

/**
 * Thread-safe in-memory span store. Parents come from a per-thread
 * stack of open spans, so nesting follows the call structure on each
 * thread.
 */
class SpanRecorder
{
  public:
    SpanRecorder() : origin_(Clock::now()) {}

    /** Open a span; returns its index for close(). */
    std::size_t open(const std::string &name, const std::string &id);
    /** Close the span @p index opened on this thread. */
    void close(std::size_t index);

    /** Snapshot of every span recorded so far. */
    std::vector<Span> spans() const;

  private:
    Clock::time_point origin_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
    std::map<std::thread::id, unsigned> threads_;  //!< id -> number
};

/** RAII span; a null recorder makes it free (the timed phase). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *recorder, const std::string &name,
               const std::string &id = "")
        : recorder_(recorder),
          index_(recorder ? recorder->open(name, id) : 0)
    {
    }
    ~ScopedSpan()
    {
        if (recorder_)
            recorder_->close(index_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder *recorder_;
    std::size_t index_;
};

/**
 * Timing decorator over a TraceStream: each next() becomes a
 * "workload.next" span, and delivered chunks are counted.
 */
class TimedStream : public grit::workload::TraceStream
{
  public:
    TimedStream(std::unique_ptr<grit::workload::TraceStream> inner,
                SpanRecorder &recorder, std::string id,
                std::uint64_t &chunks)
        : inner_(std::move(inner)), recorder_(recorder),
          id_(std::move(id)), chunks_(chunks)
    {
    }

    grit::workload::ChunkHandle next() override;
    void seek(std::uint64_t chunk) override { inner_->seek(chunk); }
    std::uint64_t chunkAccesses() const override
    {
        return inner_->chunkAccesses();
    }

  private:
    std::unique_ptr<grit::workload::TraceStream> inner_;
    SpanRecorder &recorder_;
    std::string id_;
    std::uint64_t &chunks_;  //!< owned by the caller; one consumer thread
};

/** Wrap every stream of @p workload in a TimedStream. */
void decorateStreams(grit::workload::StreamedWorkload &workload,
                     SpanRecorder &recorder, const std::string &id,
                     std::uint64_t &chunks);

/**
 * Hex FNV-1a digest of the writeRunResultJson bytes of @p result: the
 * output check's fingerprint of one cell's simulated statistics.
 */
std::string resultDigest(const grit::harness::RunResult &result);

/**
 * @p result without the counters that SystemConfig::pageSizeStats and
 * fabricStats add (tlb.*, pwc.*, promote.*, splinter.*, fabric.*), so
 * a traced cell digests like the untraced one.
 */
grit::harness::RunResult withoutOptInCounters(
    grit::harness::RunResult result);

/** The raw numbers one invocation reports to run.py. */
struct Report
{
    /** One measured repetition (a scale cell, a sweep, a serve round). */
    struct Rep
    {
        double seconds = 0.0;
        std::uint64_t accesses = 0;  //!< simulated accesses completed
        std::uint64_t requests = 0;  //!< cells or client requests
        double peakRssMib = 0.0;     //!< filled in by addRep()
    };

    std::vector<double> setupSeconds;
    std::vector<Rep> reps;
    /** Per-operation round trips (requests; whole repetitions else). */
    std::vector<double> latencyMs;

    /** First digest seen for each cell, keyed by cell id. */
    std::map<std::string, std::string> digests;
    /** Operations that returned each cell (failed-op weighting). */
    std::map<std::string, std::uint64_t> uses;

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;  //!< the first 16, described

    /** Human-readable lines run.py prints before the result. */
    std::vector<std::string> notes;
    /** Named values the output check compares (improvements). */
    std::map<std::string, double> checked;
    /** Per-layer metrics of the traced phase. */
    std::map<std::string, double> layers;
    /** Traced phase's wall time and the timed phase's equivalent. */
    double tracedSeconds = 0.0;
    double untracedSeconds = 0.0;
    /** Simulated accesses of the traced phase. */
    std::uint64_t tracedAccesses = 0;
    /** Engine workers of the timed sweeps (0: no engine). */
    unsigned workers = 0;
    std::vector<Span> spans;

    /** Start a repetition: its peak-RSS window opens here. */
    void beginRep();

    /** Append a measured repetition with its peak RSS. */
    void addRep(Rep rep);

    /** Record one failed operation. */
    void fail(const std::string &what);

    /**
     * Compare @p digest for cell @p id against the first one seen;
     * the first sighting defines it. Mismatches count as failed ops.
     */
    void checkDigest(const std::string &id, const std::string &digest,
                     const std::string &phase);
};

/**
 * A burst of set-up samples beyond the one each repetition takes:
 * @p sample does one set-up and returns its seconds. Stops after @p max
 * samples or once @p budget seconds are spent (but not before 3), so
 * work moved into set-up lengthens a burst by little more than the
 * budget or three set-ups. Workloads whose set-up is short next to a
 * repetition take a burst before each repetition: the host's speed
 * for such short, compute-bound work changes within a second, and
 * bursts spread over the run give a median that one burst at the
 * start does not.
 */
template <typename Sample>
void
sampleSetUps(Report &report, int max, double budget, Sample &&sample)
{
    const auto start = Clock::now();
    for (int i = 0; i < max && (i < 3 || secondsSince(start) < budget); ++i)
        report.setupSeconds.push_back(sample());
}

/** Modelled per-layer counts of a set of cells, summed. */
struct LayerCounts
{
    std::uint64_t accesses = 0;
    std::uint64_t events = 0;
    std::uint64_t batched = 0;
    std::uint64_t faults = 0;
    std::uint64_t evictions = 0;
    std::uint64_t peakReplicas = 0;  //!< max over cells
    std::array<std::uint64_t, 4> schemeAccesses{};
    std::map<std::string, std::uint64_t> counters;

    void add(const grit::harness::RunResult &result);
    /** Write the simcore/mem/gpu/uvm/core/policy/interconnect metrics. */
    void writeLayers(Report &report) const;
};

void runScale(const Options &options, Report &report);
void runFig17(const Options &options, Report &report);
void runServe(const Options &options, Report &report);

}  // namespace perfbench

#endif  // GRIT_PERFBENCH_BENCH_H_
