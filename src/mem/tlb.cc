#include "mem/tlb.h"

#include <cassert>
#include <utility>

namespace grit::mem {

Tlb::Tlb(std::string name, unsigned entries, unsigned ways,
         sim::Cycle latency)
    : name_(std::move(name)),
      sets_(entries / ways),
      ways_(ways),
      latency_(latency),
      pages_(entries, 0),
      lastUse_(entries, 0),
      genOf_(entries, 0)
{
    assert(ways > 0 && entries % ways == 0 && "entries must be ways-aligned");
    assert(sets_ > 0);
}

unsigned
Tlb::setIndex(sim::PageId page) const
{
    return static_cast<unsigned>(page % sets_);
}

bool
Tlb::lookup(sim::PageId page)
{
    ++tick_;
    const std::size_t base = std::size_t{setIndex(page)} * ways_;
    const std::size_t end = base + ways_;
    // Blocks of four with a branch-free any-match reduction: the miss
    // path (every way scanned) costs one branch per block. A matching
    // but generation-dead entry does not hit; keep scanning.
    std::size_t i = base;
    for (; i + 4 <= end; i += 4) {
        const bool any = (pages_[i] == page) | (pages_[i + 1] == page) |
                         (pages_[i + 2] == page) |
                         (pages_[i + 3] == page);
        if (!any)
            continue;
        for (std::size_t j = i; j < i + 4; ++j) {
            if (pages_[j] == page && live(j)) {
                lastUse_[j] = tick_;
                ++hits_;
                return true;
            }
        }
    }
    for (; i < end; ++i) {
        if (pages_[i] == page && live(i)) {
            lastUse_[i] = tick_;
            ++hits_;
            return true;
        }
    }
    ++misses_;
    return false;
}

std::optional<sim::PageId>
Tlb::insert(sim::PageId page)
{
    ++tick_;
    const std::size_t base = std::size_t{setIndex(page)} * ways_;
    std::size_t victim = base;
    for (unsigned w = 0; w < ways_; ++w) {
        const std::size_t i = base + w;
        if (!live(i)) {
            victim = i;  // prefer an invalid slot
            break;
        }
        if (pages_[i] == page) {
            lastUse_[i] = tick_;  // already present
            return std::nullopt;
        }
        if (lastUse_[i] < lastUse_[victim])
            victim = i;
    }
    std::optional<sim::PageId> displaced;
    if (live(victim))
        displaced = pages_[victim];
    pages_[victim] = page;
    lastUse_[victim] = tick_;
    genOf_[victim] = gen_;
    return displaced;
}

bool
Tlb::holds(sim::PageId page) const
{
    const std::size_t base = std::size_t{setIndex(page)} * ways_;
    for (std::size_t i = base; i < base + ways_; ++i)
        if (pages_[i] == page && live(i))
            return true;
    return false;
}

void
Tlb::invalidate(sim::PageId page)
{
    const std::size_t base = std::size_t{setIndex(page)} * ways_;
    const std::size_t end = base + ways_;
    std::size_t i = base;
    for (; i + 4 <= end; i += 4) {
        const bool any = (pages_[i] == page) | (pages_[i + 1] == page) |
                         (pages_[i + 2] == page) |
                         (pages_[i + 3] == page);
        if (!any)
            continue;
        for (std::size_t j = i; j < i + 4; ++j)
            if (pages_[j] == page && live(j))
                genOf_[j] = 0;
    }
    for (; i < end; ++i)
        if (pages_[i] == page && live(i))
            genOf_[i] = 0;
}

void
Tlb::flushAll()
{
    ++gen_;
}

std::size_t
Tlb::occupancy() const
{
    std::size_t n = 0;
    for (std::size_t i = 0; i < genOf_.size(); ++i)
        if (live(i))
            ++n;
    return n;
}

std::vector<sim::PageId>
Tlb::livePages() const
{
    std::vector<sim::PageId> out;
    for (std::size_t i = 0; i < genOf_.size(); ++i)
        if (live(i))
            out.push_back(pages_[i]);
    return out;
}

}  // namespace grit::mem
