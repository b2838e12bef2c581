#include "core/pa_cache.h"

#include <cassert>

namespace grit::core {

PaCache::PaCache(PaTable &table, unsigned entries, unsigned ways)
    : table_(table),
      sets_(entries / ways),
      ways_(ways),
      lines_(entries)
{
    assert(ways > 0 && entries % ways == 0);
    assert(sets_ > 0);
}

PaCache::Line &
PaCache::allocate(sim::PageId vpn, bool &wrote_back)
{
    Line *base = &lines_[setIndex(vpn) * ways_];
    Line *victim = base;
    for (unsigned w = 0; w < ways_; ++w) {
        Line &l = base[w];
        if (!l.valid) {
            victim = &l;
            break;
        }
        if (!victim->valid || l.lastUse < victim->lastUse)
            victim = &l;
    }
    if (victim->valid) {
        // Write-back policy: the displaced entry returns to the table.
        table_.put(victim->vpn, victim->entry);
        ++writebacks_;
        wrote_back = true;
    }
    victim->vpn = vpn;
    victim->entry = PaEntry{};
    victim->valid = true;
    return *victim;
}

PaAccessResult
PaCache::recordFault(sim::PageId vpn, bool write, std::uint32_t threshold)
{
    assert(threshold > 0);
    ++tick_;
    PaAccessResult result;

    Line *hit_line = nullptr;
    Line *base = &lines_[setIndex(vpn) * ways_];
    for (unsigned w = 0; w < ways_; ++w) {
        Line &l = base[w];
        if (l.valid && l.vpn == vpn) {
            hit_line = &l;
            break;
        }
    }

    if (hit_line != nullptr) {
        result.cacheHit = true;
        ++hits_;
    } else {
        ++misses_;
        Line &l = allocate(vpn, result.wroteBack);
        if (const PaEntry *from_table = table_.find(vpn)) {
            // Write-allocate: bring the table entry into the cache.
            l.entry = *from_table;
            table_.erase(vpn);
            result.tableHit = true;
        }
        hit_line = &l;
    }

    hit_line->lastUse = tick_;
    hit_line->entry.faultCounter += 1;
    hit_line->entry.writeSeen = hit_line->entry.writeSeen || write;

    result.faultCount = hit_line->entry.faultCounter;
    result.writeSeen = hit_line->entry.writeSeen;

    if (hit_line->entry.faultCounter >= threshold) {
        // Threshold reached: the access information goes to the UVM
        // driver for the scheme decision and the entry disappears from
        // both the cache and the table.
        result.triggered = true;
        hit_line->valid = false;
        table_.erase(vpn);
    }
    return result;
}

std::uint64_t
PaCache::hardwareBytes() const
{
    // Paper Section V-F: (41 tag + 2 counter + 1 R/W) bits per entry.
    const std::uint64_t bits_per_entry = 41 + 2 + 1;
    return bits_per_entry * lines_.size() / 8;
}

std::size_t
PaCache::occupancy() const
{
    std::size_t n = 0;
    for (const Line &l : lines_)
        if (l.valid)
            ++n;
    return n;
}

void
PaCache::invalidateAll()
{
    for (Line &l : lines_)
        l.valid = false;
}

void
PaCache::writeBackAll()
{
    for (Line &l : lines_) {
        if (!l.valid)
            continue;
        table_.put(l.vpn, l.entry);
        ++writebacks_;
        l.valid = false;
    }
}

}  // namespace grit::core
