#include "mem/dram_manager.h"

#include <cassert>

namespace grit::mem {

DramManager::DramManager(std::uint64_t capacity_pages)
    : capacity_(capacity_pages)
{
}

void
DramManager::configureRegions(std::uint64_t pages_per_region)
{
    assert(index_.empty() && "configure regions before any allocation");
    pagesPerRegion_ = pages_per_region > 1 ? pages_per_region : 1;
    regions_.clear();
}

std::uint64_t
DramManager::ownedInRegion(sim::PageId region) const
{
    if (pagesPerRegion_ <= 1)
        return 0;
    const RegionState *state = regions_.find(region);
    return state != nullptr ? state->owned : 0;
}

void
DramManager::pinRegion(sim::PageId region)
{
    if (pagesPerRegion_ <= 1)
        return;
    regions_[region].pinned = true;
}

void
DramManager::unpinRegion(sim::PageId region)
{
    if (pagesPerRegion_ <= 1)
        return;
    RegionState *state = regions_.find(region);
    if (state == nullptr)
        return;
    state->pinned = false;
    if (state->owned == 0)
        regions_.erase(region);
}

bool
DramManager::regionPinned(sim::PageId region) const
{
    if (pagesPerRegion_ <= 1)
        return false;
    const RegionState *state = regions_.find(region);
    return state != nullptr && state->pinned;
}

void
DramManager::accountOwned(sim::PageId page, std::int64_t delta)
{
    if (pagesPerRegion_ <= 1)
        return;
    const sim::PageId region = regionOf(page);
    RegionState *state = regions_.find(region);
    if (state == nullptr) {
        if (delta <= 0)
            return;
        state = &regions_[region];
    }
    if (delta > 0) {
        state->owned += static_cast<std::uint64_t>(delta);
    } else {
        const auto dec = static_cast<std::uint64_t>(-delta);
        assert(state->owned >= dec && "region owned-count underflow");
        state->owned -= dec;
        if (state->owned == 0 && !state->pinned)
            regions_.erase(region);
    }
}

Eviction
DramManager::release(std::uint32_t slot)
{
    const Eviction frame = frames_[slot];
    order_.unlink(slot);
    freeSlots_.push_back(slot);
    index_.erase(frame.page);
    if (frame.kind == FrameKind::kReplica)
        --replicas_;
    else
        accountOwned(frame.page, -1);
    return frame;
}

Eviction
DramManager::evictVictim()
{
    std::uint32_t victim = order_.lru();
    assert(victim != sim::RecencyList::kNil);
    if (pagesPerRegion_ > 1) {
        // Scan from the LRU end for the first frame outside a pinned
        // region. Pinned (promoted) frames are hot by construction, so
        // they cluster near the MRU end and the scan stays short. When
        // every frame is pinned, capacity is a hard limit, so the true
        // LRU goes anyway; the caller splinters its region.
        for (std::uint32_t f = victim; f != sim::RecencyList::kNil;
             f = order_.newer(f)) {
            if (!regionPinned(regionOf(frames_[f].page))) {
                victim = f;
                break;
            }
        }
    }
    ++evictions_;
    return release(victim);
}

std::optional<Eviction>
DramManager::insert(sim::PageId page, FrameKind kind)
{
    assert(!resident(page) && "double allocation of a frame");

    std::optional<Eviction> victim;
    if (capacity_ != 0 && index_.size() >= capacity_)
        victim = evictVictim();

    std::uint32_t slot;
    if (!freeSlots_.empty()) {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
        frames_[slot] = Eviction{page, kind};
    } else {
        slot = order_.addSlot();
        frames_.push_back(Eviction{page, kind});
    }
    order_.pushMru(slot);
    index_[page] = slot;
    if (kind == FrameKind::kReplica)
        ++replicas_;
    else
        accountOwned(page, +1);
    return victim;
}

void
DramManager::touch(sim::PageId page)
{
    if (const std::uint32_t *slot = index_.find(page))
        order_.touch(*slot);
}

bool
DramManager::erase(sim::PageId page)
{
    const std::uint32_t *slot = index_.find(page);
    if (slot == nullptr)
        return false;
    release(*slot);
    return true;
}

bool
DramManager::resident(sim::PageId page) const
{
    return index_.contains(page);
}

FrameKind
DramManager::kindOf(sim::PageId page) const
{
    const std::uint32_t *slot = index_.find(page);
    assert(slot != nullptr);
    return frames_[*slot].kind;
}

void
DramManager::setKind(sim::PageId page, FrameKind kind)
{
    const std::uint32_t *slot = index_.find(page);
    assert(slot != nullptr);
    Eviction &frame = frames_[*slot];
    if (frame.kind == kind)
        return;
    if (frame.kind == FrameKind::kReplica) {
        --replicas_;
        accountOwned(page, +1);
    } else {
        ++replicas_;
        accountOwned(page, -1);
    }
    frame.kind = kind;
}

std::optional<Eviction>
DramManager::evictLru()
{
    if (index_.empty())
        return std::nullopt;
    return evictVictim();
}

std::vector<Eviction>
DramManager::frames() const
{
    std::vector<Eviction> out;
    out.reserve(index_.size());
    for (std::uint32_t f = order_.mru(); f != sim::RecencyList::kNil;
         f = order_.older(f))
        out.push_back(frames_[f]);
    return out;
}

}  // namespace grit::mem
