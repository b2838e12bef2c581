/**
 * @file
 * Deterministic discrete-event queue driving the simulation.
 *
 * Events are (time, sequence, callback) triples processed in nondecreasing
 * time order; ties break by insertion sequence so runs are bit-for-bit
 * reproducible regardless of scheduling jitter in the host process.
 *
 * The hot path is engineered for throughput:
 *
 *  - EventFn is a small-buffer callback type: the capture state of a
 *    scheduling lambda is placed directly inside the event record, so
 *    scheduling an event performs no heap allocation (std::function,
 *    which this replaced, allocates for captures beyond ~2 words).
 *    Callables must be trivially copyable and fit kInlineBytes — a
 *    compile-time error otherwise, never a silent fallback.
 *  - The queue is a two-level bucketed calendar queue keyed on cycle:
 *    events within the near window [now, now + kWindow) land in a
 *    per-cycle FIFO bucket (O(1) schedule, O(1) amortized dispatch);
 *    events beyond it wait in an overflow heap ordered by (time,
 *    sequence) and migrate into buckets as the window slides with now.
 *    FIFO within a bucket preserves the (time, sequence) determinism
 *    contract exactly, so results are bit-identical to the old
 *    binary-heap implementation.
 *
 * Two safety valves guard against runaway simulations, both reporting a
 * structured SimError via diagnostic() instead of aborting: the run()
 * event limit (names the oldest pending event's debug tag when it
 * trips) and a same-cycle liveness watchdog that detects event storms
 * which stop advancing simulated time (deadlock/livelock) long before
 * the event limit would. Scheduling into the past is a third valve: it
 * throws a kScheduleInPast SimException naming the event's tag.
 */

#ifndef GRIT_SIMCORE_EVENT_QUEUE_H_
#define GRIT_SIMCORE_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "simcore/sim_error.h"
#include "simcore/types.h"

namespace grit::sim {

/**
 * Allocation-free callback executed when an event fires.
 *
 * A fixed inline buffer holds the callable's captures; the type is
 * trivially copyable, so moving events inside the queue is a memcpy
 * and destroying them is free. Callables must themselves be trivially
 * copyable (captures of pointers, references, and PODs — exactly what
 * simulation events capture) and fit in kInlineBytes.
 */
class EventFn
{
  public:
    /** Inline capture capacity (bytes). */
    static constexpr std::size_t kInlineBytes = 48;

    EventFn() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventFn>>>
    EventFn(F &&fn)  // NOLINT: implicit by design, mirrors std::function
    {
        using Fn = std::decay_t<F>;
        static_assert(std::is_invocable_r_v<void, Fn &>,
                      "event callback must be invocable as void()");
        static_assert(std::is_trivially_copyable_v<Fn>,
                      "event callbacks must be trivially copyable: "
                      "capture pointers/indices, not owning objects");
        static_assert(sizeof(Fn) <= kInlineBytes,
                      "event callback captures exceed EventFn's inline "
                      "buffer; shrink the capture list");
        static_assert(alignof(Fn) <= alignof(std::max_align_t),
                      "over-aligned event callback");
        ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(fn));
        invoke_ = [](void *p) { (*static_cast<Fn *>(p))(); };
    }

    /** True when a callable is installed. */
    explicit operator bool() const { return invoke_ != nullptr; }

    void operator()() { invoke_(buf_); }

  private:
    void (*invoke_)(void *) = nullptr;
    alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
};

/**
 * A time-ordered queue of one-shot events.
 *
 * The queue owns the global notion of "now": while an event executes,
 * now() returns that event's timestamp. Scheduling into the past is a
 * programming error reported as a structured kScheduleInPast
 * SimException (like the other safety valves, never silent).
 */
class EventQueue
{
  public:
    EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time (timestamp of the executing event). */
    Cycle now() const { return now_; }

    /** Number of pending events. */
    std::size_t pending() const { return pending_; }

    /** True when no events remain. */
    bool empty() const { return pending_ == 0; }

    /**
     * Schedule @p fn to run at absolute time @p when.
     * @param when absolute cycle; must be >= now() (kScheduleInPast
     *             SimException otherwise).
     * @param fn   callback to execute.
     * @param tag  optional static debug tag naming the event kind;
     *             surfaces in limit-trip / watchdog diagnostics. Must
     *             point to storage outliving the event (string literal).
     */
    void schedule(Cycle when, EventFn fn, const char *tag = nullptr);

    /** Schedule @p fn to run @p delay cycles after now(). */
    void scheduleAfter(Cycle delay, EventFn fn, const char *tag = nullptr)
    {
        schedule(now_ + delay, fn, tag);
    }

    /**
     * Run events until the queue drains, @p limit events have fired, or
     * the liveness watchdog trips. Either stop with work still pending
     * records a structured diagnostic() and sets limitHit() /
     * stalled() so callers can tell a drained simulation from a
     * truncated one.
     * @param limit safety valve against runaway simulations.
     * @return number of events executed.
     */
    std::uint64_t run(std::uint64_t limit = UINT64_MAX);

    /** True when the last run() stopped at its limit with work pending. */
    bool limitHit() const { return limitHit_; }

    /** True when the last run() was stopped by the liveness watchdog. */
    bool stalled() const { return stalled_; }

    /** True when the last run() was stopped by the cancel check. */
    bool cancelled() const { return cancelled_; }

    /**
     * Predicate run() polls between events; a non-nullopt return stops
     * the run cooperatively (no event is interrupted mid-flight) and
     * becomes diagnostic(). This is how per-run watchdogs — wall-clock
     * deadlines and external interrupt flags — reach into a simulation
     * without aborting the process. Cold path: unlike EventFn, the
     * check may capture arbitrary state.
     */
    using CancelFn = std::function<std::optional<SimError>()>;

    /**
     * Install @p check, polled before the first event and then every
     * @p interval_events executed events. An empty function (the
     * default) disables cancellation.
     */
    void setCancelCheck(CancelFn check,
                        std::uint64_t interval_events = kCancelInterval)
    {
        cancelCheck_ = std::move(check);
        cancelIntervalEvents_ = interval_events > 0 ? interval_events
                                                    : kCancelInterval;
    }

    /** Default cancel-poll granularity, in executed events. */
    static constexpr std::uint64_t kCancelInterval = 1024;

    /**
     * Structured diagnostic from the last run()'s safety stop
     * (kEventLimit or kNoProgress), or nullopt after a clean drain.
     */
    const std::optional<SimError> &diagnostic() const
    {
        return diagnostic_;
    }

    /**
     * Arm the liveness watchdog: executing more than @p events events
     * without simulated time advancing stops run() with a kNoProgress
     * diagnostic. 0 (the default) disables the watchdog.
     */
    void setWatchdog(std::uint64_t events) { watchdogEvents_ = events; }

    /** Debug tag of the next pending event (nullptr if none/untagged). */
    const char *nextTag() const;

    /** Timestamp of the next pending event (now() when queue empty). */
    Cycle nextWhen() const;

    /** Execute at most one event. @return true if an event fired. */
    bool step();

    /** Calendar near-window length in cycles (per-cycle buckets). */
    static constexpr std::size_t kWindowBits = 12;
    static constexpr std::size_t kWindow = std::size_t{1} << kWindowBits;

  private:
    /** One scheduled event; its cycle is implied by its bucket. */
    struct Event
    {
        EventFn fn;
        const char *tag;
    };

    /** FIFO of one cycle's events; head is the next unconsumed. */
    struct Bucket
    {
        std::vector<Event> items;
        std::size_t head = 0;
    };

    /** Overflow event beyond the near window, heap-ordered. */
    struct FarEvent
    {
        Cycle when;
        std::uint64_t seq;
        EventFn fn;
        const char *tag;
    };

    struct FarLater
    {
        bool
        operator()(const FarEvent &a, const FarEvent &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    static constexpr std::size_t kMask = kWindow - 1;

    /**
     * Cycle of the earliest non-empty bucket at/after now_ (bitmap
     * scan). Precondition: nearCount_ > 0.
     */
    Cycle firstBucketCycle() const;

    /**
     * Set now_ to @p when (no earlier than any pending event) and slide
     * the near window with it, pulling overflow events into buckets.
     */
    void advanceTo(Cycle when);

    void markOccupied(std::size_t idx)
    {
        occupied_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
    }
    void clearOccupied(std::size_t idx)
    {
        occupied_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
    }

    std::vector<Bucket> buckets_;         // kWindow per-cycle FIFOs
    std::vector<std::uint64_t> occupied_; // bitmap over buckets_
    // Events in [now_, now_ + kWindow) sit in buckets_, later ones in
    // far_ (a FarLater heap).
    std::vector<FarEvent> far_;
    std::size_t nearCount_ = 0;           // unconsumed events in buckets_
    std::size_t pending_ = 0;             // near + far
    Cycle now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t watchdogEvents_ = 0;
    CancelFn cancelCheck_;
    std::uint64_t cancelIntervalEvents_ = kCancelInterval;
    bool limitHit_ = false;
    bool stalled_ = false;
    bool cancelled_ = false;
    std::optional<SimError> diagnostic_;
};

}  // namespace grit::sim

#endif  // GRIT_SIMCORE_EVENT_QUEUE_H_
