/**
 * @file
 * Named statistic counters collected during a simulation run.
 *
 * Simulator components hold references into a StatSet owned by the run,
 * so that a fresh run starts from zeroed statistics without global state.
 */

#ifndef GRIT_STATS_COUNTERS_H_
#define GRIT_STATS_COUNTERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace grit::stats {

/** A monotonically increasing event counter. */
class Counter
{
  public:
    void inc(std::uint64_t n = 1) { value_ += n; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * A registry of counters addressed by name.
 *
 * Lookup creates on first use; iteration is in name order so printed
 * reports are stable.
 */
class StatSet
{
  public:
    /** Get (or create) the counter named @p name. */
    Counter &counter(const std::string &name) { return counters_[name]; }

    /** Read a counter; zero if it was never touched. */
    std::uint64_t get(const std::string &name) const;

    /** All (name, value) pairs in name order. */
    std::vector<std::pair<std::string, std::uint64_t>> items() const;

  private:
    std::map<std::string, Counter> counters_;
};

/**
 * One named counter of a StatSet, looked up on its first increment and
 * cached after that.
 *
 * StatSet::counter() builds a std::string and walks the map on every
 * call, and the fault path's names are too long for the small-string
 * buffer, so each call allocates. Hot paths hold a CounterRef instead.
 * The lookup stays lazy, not eager: the first inc() (even of 0)
 * creates the entry, so a counter still appears in the set only once
 * it fires, exactly as with counter(). Map nodes never move and the
 * set never erases, so the cached pointer stays valid.
 */
class CounterRef
{
  public:
    /** @p name must outlive the reference (a string literal). */
    CounterRef(StatSet &set, const char *name) : set_(&set), name_(name) {}

    void
    inc(std::uint64_t n = 1)
    {
        if (counter_ == nullptr)
            counter_ = &set_->counter(name_);
        counter_->inc(n);
    }

  private:
    StatSet *set_;
    const char *name_;
    Counter *counter_ = nullptr;
};

}  // namespace grit::stats

#endif  // GRIT_STATS_COUNTERS_H_
