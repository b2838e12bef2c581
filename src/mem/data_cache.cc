#include "mem/data_cache.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "simcore/first_min.h"

namespace grit::mem {

DataCache::DataCache(std::string name, std::uint64_t size_bytes,
                     unsigned ways, std::uint64_t line_bytes,
                     sim::Cycle latency)
    : name_(std::move(name)),
      sets_(static_cast<unsigned>(size_bytes / line_bytes / ways)),
      ways_(ways),
      lineBytes_(line_bytes),
      latency_(latency),
      lines_(static_cast<std::size_t>(size_bytes / line_bytes), 0),
      lastUse_(lines_.size(), 0),
      live_(sets_, ways)
{
    assert(ways > 0 && line_bytes > 0);
    assert(size_bytes % (line_bytes * ways) == 0);
    assert(sets_ > 0);
}

bool
DataCache::access(std::uint64_t line_id)
{
    ++tick_;
    const std::size_t hit = findLive(line_id);
    if (hit != LiveWays::kNone) {
        lastUse_[hit] = tick_;
        ++hits_;
        return true;
    }
    ++misses_;
    // A set with a dead way fills it (dead ways are interchangeable:
    // nothing reads a dead slot); a full set loses its LRU way (live
    // stamps are distinct, so the minimum is unique).
    const std::size_t set = live_.setOf(line_id);
    const std::size_t base = set * ways_;
    std::uint64_t *live = live_.fill(set);
    const std::size_t dead = live_.firstDead(live);
    std::size_t victim;
    if (dead < ways_) {
        victim = base + dead;
        LiveWays::markLive(live, dead);
    } else {
        victim = base + sim::firstMinIndex(&lastUse_[base], ways_);
    }
    lines_[victim] = line_id;
    lastUse_[victim] = tick_;
    return false;
}

bool
DataCache::contains(std::uint64_t line_id) const
{
    return findLive(line_id) != LiveWays::kNone;
}

void
DataCache::invalidateSpan(std::size_t first_set, std::size_t end_set,
                          std::uint64_t first, std::uint64_t count)
{
    // Unsigned wrap makes one compare a two-sided range test. Blocks of
    // four use a branch-free any-match reduction so the common
    // no-line-here case costs one branch per block, not per entry. A
    // set emptied by a flush holds nothing to kill.
    for (std::size_t set = first_set; set < end_set; ++set) {
        if (live_.find(set) == nullptr)
            continue;
        std::uint64_t *live = live_.fill(set);
        const std::size_t base = set * ways_;
        const std::size_t end = base + ways_;
        std::size_t i = base;
        for (; i + 4 <= end; i += 4) {
            const bool any = (lines_[i] - first < count) |
                             (lines_[i + 1] - first < count) |
                             (lines_[i + 2] - first < count) |
                             (lines_[i + 3] - first < count);
            if (!any)
                continue;
            for (std::size_t j = i; j < i + 4; ++j)
                if (lines_[j] - first < count)
                    LiveWays::markDead(live, j - base);
        }
        for (; i < end; ++i)
            if (lines_[i] - first < count)
                LiveWays::markDead(live, i - base);
    }
}

void
DataCache::invalidatePage(sim::PageId page, unsigned lines_per_page)
{
    const std::uint64_t first = page * lines_per_page;
    // The page's lines occupy lines_per_page consecutive sets starting
    // at first % sets_ (all sets when the page has more lines than
    // sets). Sweep those sets as contiguous spans of the SoA arrays.
    if (lines_per_page >= sets_) {
        invalidateSpan(0, sets_, first, lines_per_page);
        return;
    }
    const std::size_t s0 = live_.setOf(first);
    const std::size_t last = std::min<std::size_t>(s0 + lines_per_page,
                                                   sets_);
    invalidateSpan(s0, last, first, lines_per_page);
    if (s0 + lines_per_page > sets_)  // wrapped around the set array
        invalidateSpan(0, s0 + lines_per_page - sets_, first,
                       lines_per_page);
}

void
DataCache::flushAll()
{
    live_.flushAll();
}

}  // namespace grit::mem
