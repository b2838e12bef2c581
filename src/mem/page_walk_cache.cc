#include "mem/page_walk_cache.h"

#include <cassert>

namespace grit::mem {

PageWalkCache::PageWalkCache(unsigned entries) : capacity_(entries)
{
    assert(entries > 0);
}

std::uint64_t
PageWalkCache::key(sim::PageId page, unsigned level)
{
    assert(level >= 1 && level < kLevels);
    // 9 bits of the VPN are consumed per level; tag the key with the
    // level so prefixes from different levels never alias.
    return (page >> (9 * level)) | (static_cast<std::uint64_t>(level) << 60);
}

unsigned
PageWalkCache::walkAccesses(sim::PageId page) const
{
    // Walk from the deepest (cheapest) cached prefix: if the 2 MB-level
    // entry is cached only the leaf access remains, and so on upward.
    for (unsigned level = 1; level < kLevels; ++level) {
        if (index_.contains(key(page, level)))
            return level;
    }
    return kLevels;
}

void
PageWalkCache::touch(std::uint64_t key)
{
    if (const std::uint32_t *slot = index_.find(key)) {
        order_.touch(*slot);
        return;
    }
    std::uint32_t slot;
    if (keys_.size() < capacity_) {
        slot = order_.addSlot();
        keys_.push_back(key);
    } else {
        // Full: the least recently touched entry makes room.
        slot = order_.lru();
        order_.unlink(slot);
        index_.erase(keys_[slot]);
        keys_[slot] = key;
    }
    index_[key] = slot;
    order_.pushMru(slot);
}

void
PageWalkCache::fill(sim::PageId page)
{
    for (unsigned level = 1; level < kLevels; ++level)
        touch(key(page, level));
}

void
PageWalkCache::flushAll()
{
    for (const std::uint64_t key : keys_)
        index_.erase(key);
    keys_.clear();
    order_.clear();
}

void
PageWalkCache::recordWalk(unsigned accesses)
{
    if (accesses <= 1)
        ++hits_;
    else
        ++misses_;
}

}  // namespace grit::mem
