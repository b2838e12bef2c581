#include "mem/tlb.h"

#include <cassert>
#include <utility>

#include "simcore/first_min.h"

namespace grit::mem {

Tlb::Tlb(std::string name, unsigned entries, unsigned ways,
         sim::Cycle latency)
    : name_(std::move(name)),
      sets_(entries / ways),
      ways_(ways),
      latency_(latency),
      pages_(entries, 0),
      lastUse_(entries, 0),
      live_(entries / ways, ways)
{
    assert(ways > 0 && entries % ways == 0 && "entries must be ways-aligned");
    assert(sets_ > 0);
}

bool
Tlb::lookup(sim::PageId page)
{
    ++tick_;
    const std::size_t i = firstLive(live_.setOf(page), page);
    if (i == LiveWays::kNone) {
        ++misses_;
        missed_ = page;
        return false;
    }
    lastUse_[i] = tick_;
    ++hits_;
    return true;
}

std::optional<sim::PageId>
Tlb::insert(sim::PageId page)
{
    // Fill the first dead way, unless a live copy of the page sits
    // before it (refresh that copy); a full set loses its LRU way (live
    // stamps are distinct, so the minimum is unique). A live copy
    // beyond the first dead way is ignored, so the set then holds the
    // page once more: the goldens pin the victims of this way-order
    // rule.
    ++tick_;
    const std::size_t set = live_.setOf(page);
    const std::size_t base = set * ways_;
    std::uint64_t *live = live_.fill(set);
    const std::size_t dead = live_.firstDead(live);
    // A fill right after its own lookup missed has no copy to find.
    const std::size_t copy =
        missed_ == page ? LiveWays::kNone : firstLive(set, page);
    missed_.reset();
    if (copy != LiveWays::kNone && copy - base < dead) {
        lastUse_[copy] = tick_;  // already present
        return std::nullopt;
    }
    std::optional<sim::PageId> displaced;
    std::size_t victim;
    if (dead < ways_) {
        victim = base + dead;
        LiveWays::markLive(live, dead);
    } else {
        victim = base + sim::firstMinIndex(&lastUse_[base], ways_);
        displaced = pages_[victim];
    }
    pages_[victim] = page;
    lastUse_[victim] = tick_;
    return displaced;
}

bool
Tlb::holds(sim::PageId page) const
{
    return firstLive(live_.setOf(page), page) != LiveWays::kNone;
}

void
Tlb::invalidate(sim::PageId page)
{
    // One pass kills every copy: each refill that finds a dead way
    // before a live copy adds one more. Killing a dead way changes
    // nothing.
    const std::size_t set = live_.setOf(page);
    if (live_.find(set) == nullptr)
        return;  // a flush emptied the set
    std::uint64_t *live = live_.fill(set);
    const std::size_t base = set * ways_;
    for (std::size_t way = 0; way < ways_; ++way)
        if (pages_[base + way] == page)
            LiveWays::markDead(live, way);
}

void
Tlb::flushAll()
{
    live_.flushAll();
}

std::size_t
Tlb::occupancy() const
{
    std::size_t n = 0;
    for (std::size_t set = 0; set < sets_; ++set)
        live_.forEachLive(set, [&n](std::size_t) { ++n; });
    return n;
}

std::vector<sim::PageId>
Tlb::livePages() const
{
    std::vector<sim::PageId> out;
    for (std::size_t set = 0; set < sets_; ++set) {
        const std::size_t base = set * ways_;
        live_.forEachLive(set, [&](std::size_t way) {
            out.push_back(pages_[base + way]);
        });
    }
    return out;
}

}  // namespace grit::mem
