#include "simcore/event_queue.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <sstream>
#include <utility>


namespace grit::sim {

EventQueue::EventQueue()
    : buckets_(kWindow), occupied_(kWindow / 64, 0)
{
}

void
EventQueue::schedule(Cycle when, EventFn fn, const char *tag)
{
    assert(fn && "scheduling an empty event");
    if (when < now_) {
        std::ostringstream what;
        what << "event '" << (tag ? tag : "untagged")
             << "' scheduled at cycle " << when
             << ", which is in the past (now is cycle " << now_ << ")";
        throw SimException(ErrorCode::kScheduleInPast, what.str(),
                           "event-queue safety valve");
    }
    const std::uint64_t seq = nextSeq_++;
    ++pending_;
    if (when - now_ < kWindow) {
        const std::size_t idx = when & kMask;
        buckets_[idx].items.push_back(Event{fn, tag});
        markOccupied(idx);
        ++nearCount_;
    } else {
        far_.push_back(FarEvent{when, seq, fn, tag});
        std::push_heap(far_.begin(), far_.end(), FarLater{});
    }
}

void
EventQueue::advanceTo(Cycle when)
{
    // The window slides with now_: every overflow event that falls
    // inside [when, when + kWindow) moves into its bucket here, before
    // the event at `when` runs and can schedule directly into one of
    // those cycles. Heap pops come out in (time, sequence) order, and
    // every event scheduled at a cycle before the window reached it has
    // a lower sequence than any scheduled after, so each bucket's FIFO
    // stays in sequence order — the determinism contract is preserved.
    now_ = when;
    while (!far_.empty() && far_.front().when - when < kWindow) {
        std::pop_heap(far_.begin(), far_.end(), FarLater{});
        const FarEvent ev = far_.back();
        far_.pop_back();
        const std::size_t idx = ev.when & kMask;
        buckets_[idx].items.push_back(Event{ev.fn, ev.tag});
        markOccupied(idx);
        ++nearCount_;
    }
}

Cycle
EventQueue::firstBucketCycle() const
{
    assert(nearCount_ > 0);
    // Every occupied bucket maps to a unique cycle in
    // [now_, now_ + kWindow); scan the bitmap ring from now_'s residue
    // to find the earliest.
    const std::size_t start = static_cast<std::size_t>(now_) & kMask;
    const std::size_t words = kWindow / 64;
    const std::size_t w0 = start >> 6;
    const unsigned off = start & 63;
    std::uint64_t word = occupied_[w0] >> off;
    if (word != 0)
        return now_ + static_cast<Cycle>(std::countr_zero(word));
    Cycle dist = 64 - off;
    for (std::size_t i = 1; i < words; ++i) {
        word = occupied_[(w0 + i) & (words - 1)];
        if (word != 0)
            return now_ + dist + static_cast<Cycle>(std::countr_zero(word));
        dist += 64;
    }
    word = off != 0 ? (occupied_[w0] & ((std::uint64_t{1} << off) - 1))
                    : 0;
    assert(word != 0 && "occupied bitmap out of sync");
    return now_ + dist + static_cast<Cycle>(std::countr_zero(word));
}

const char *
EventQueue::nextTag() const
{
    if (nearCount_ > 0) {
        const Bucket &b = buckets_[firstBucketCycle() & kMask];
        return b.items[b.head].tag;
    }
    return far_.empty() ? nullptr : far_.front().tag;
}

Cycle
EventQueue::nextWhen() const
{
    if (nearCount_ > 0)
        return firstBucketCycle();
    return far_.empty() ? now_ : far_.front().when;
}

bool
EventQueue::step()
{
    if (pending_ == 0)
        return false;
    // With the near window empty, jump straight to the overflow heap's
    // earliest event; advanceTo() then pulls it into its bucket.
    const Cycle when =
        nearCount_ > 0 ? firstBucketCycle() : far_.front().when;
    advanceTo(when);
    Bucket &bucket = buckets_[when & kMask];
    Event ev = bucket.items[bucket.head++];
    --nearCount_;
    --pending_;
    if (bucket.head == bucket.items.size()) {
        // Retire the bucket before dispatch: the event may schedule
        // back into this very cycle, which must append to a clean FIFO.
        bucket.items.clear();
        bucket.head = 0;
        clearOccupied(when & kMask);
    }
    ev.fn();
    return true;
}

std::uint64_t
EventQueue::run(std::uint64_t limit)
{
    limitHit_ = false;
    stalled_ = false;
    cancelled_ = false;
    diagnostic_.reset();
    std::uint64_t executed = 0;
    Cycle lastAdvance = now_;
    std::uint64_t sameCycle = 0;
    while (executed < limit && pending_ > 0) {
        if (cancelCheck_ && executed % cancelIntervalEvents_ == 0) {
            if (std::optional<SimError> reason = cancelCheck_()) {
                cancelled_ = true;
                diagnostic_ = std::move(reason);
                break;
            }
        }
        step();
        ++executed;
        if (watchdogEvents_ > 0) {
            if (now_ != lastAdvance) {
                lastAdvance = now_;
                sameCycle = 0;
            } else if (++sameCycle > watchdogEvents_) {
                stalled_ = true;
                break;
            }
        }
    }
    if (cancelled_) {
        // diagnostic_ carries the cancel reason verbatim.
    } else if (stalled_) {
        std::ostringstream what;
        what << "no progress: " << sameCycle
             << " events executed at cycle " << now_
             << " without simulated time advancing (next pending: '"
             << (nextTag() ? nextTag() : "untagged") << "', "
             << pending_ << " pending)";
        diagnostic_ = SimError(ErrorCode::kNoProgress, what.str(),
                               "event-queue watchdog");
    } else if (pending_ > 0 && executed >= limit) {
        limitHit_ = true;
        std::ostringstream what;
        what << "event limit (" << limit << ") hit at cycle " << now_
             << " with " << pending_
             << " events still pending; oldest pending event: '"
             << (nextTag() ? nextTag() : "untagged") << "' at cycle "
             << nextWhen();
        diagnostic_ = SimError(ErrorCode::kEventLimit, what.str(),
                               "event-queue safety valve");
    }
    return executed;
}

}  // namespace grit::sim
