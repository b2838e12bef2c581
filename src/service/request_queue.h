/**
 * @file
 * Bounded fair-share admission queue of the simulation service.
 *
 * Jobs (the server queues its admitted cells themselves) are queued
 * per client and dispensed round-robin over clients in first-seen
 * order, so one client submitting a large sweep cannot starve
 * another's single request. The queue is bounded: push() refuses
 * beyond the capacity (the server sheds the request with a structured
 * "service-overloaded" error instead of letting latency grow without
 * bound) and refuses after close() (drain: the server answers
 * "service-draining"). pop() blocks while the queue is open and empty,
 * drains remaining jobs after close(), then reports exhaustion —
 * exactly the worker-loop termination the graceful SIGTERM path needs.
 */

#ifndef GRIT_SERVICE_REQUEST_QUEUE_H_
#define GRIT_SERVICE_REQUEST_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace grit::service {

/** Outcome of an admission attempt. */
enum class Admission
{
    kAdmitted,  //!< queued; a worker will pick it up
    kFull,      //!< bounded queue at capacity — shed the request
    kClosed,    //!< queue closed (draining) — no new admissions
};

/** The bounded round-robin queue of @p Job values. Thread-safe. */
template <typename Job>
class FairShareQueue
{
  public:
    explicit FairShareQueue(std::size_t capacity) : capacity_(capacity) {}

    /** Try to queue @p job under @p client's lane. */
    Admission push(const std::string &client, Job job)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (closed_)
                return Admission::kClosed;
            if (size_ >= capacity_)
                return Admission::kFull;
            Lane *lane = nullptr;
            for (Lane &l : lanes_)
                if (l.client == client) {
                    lane = &l;
                    break;
                }
            if (lane == nullptr)
                lane = &lanes_.emplace_back(Lane{client, {}});
            lane->jobs.push_back(std::move(job));
            ++size_;
        }
        cv_.notify_one();
        return Admission::kAdmitted;
    }

    /**
     * Next job, round-robin across clients; blocks while open and
     * empty. After close(), drains what is queued and then returns
     * nullopt forever.
     */
    std::optional<Job> pop()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return size_ > 0 || closed_; });
        // Serve the next non-empty lane at or after the cursor; advance
        // the cursor past it so each client gets one turn per cycle.
        for (std::size_t step = 0; size_ > 0 && step < lanes_.size();
             ++step) {
            const std::size_t i = (cursor_ + step) % lanes_.size();
            Lane &lane = lanes_[i];
            if (lane.jobs.empty())
                continue;
            std::optional<Job> job(std::move(lane.jobs.front()));
            lane.jobs.pop_front();
            --size_;
            cursor_ = (i + 1) % lanes_.size();
            return job;
        }
        return std::nullopt;  // closed and drained
    }

    /** Stop admitting; queued jobs still drain through pop(). */
    void close()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            closed_ = true;
        }
        cv_.notify_all();
    }

    bool closed() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return closed_;
    }

    /** Jobs currently queued (all clients). */
    std::size_t size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return size_;
    }

    std::size_t capacity() const { return capacity_; }

  private:
    struct Lane
    {
        std::string client;
        std::deque<Job> jobs;
    };

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::size_t capacity_;
    std::size_t size_ = 0;
    /** Lanes in first-seen client order (kept after they empty). */
    std::vector<Lane> lanes_;
    /** Next lane pop() serves (round-robin cursor). */
    std::size_t cursor_ = 0;
    bool closed_ = false;
};

}  // namespace grit::service

#endif  // GRIT_SERVICE_REQUEST_QUEUE_H_
