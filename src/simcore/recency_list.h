/**
 * @file
 * Index-linked recency order for the simulator's slot-based LRU
 * structures (mem::PageWalkCache, mem::DramManager).
 *
 * Slots are small integers owned by the caller, which keeps its payload
 * in a parallel vector. The list only links slots from the most to the
 * least recently used, so touching, linking and unlinking a slot are
 * O(1) with no allocation once the slot exists.
 */

#ifndef GRIT_SIMCORE_RECENCY_LIST_H_
#define GRIT_SIMCORE_RECENCY_LIST_H_

#include <cstdint>
#include <vector>

namespace grit::sim {

/** Doubly linked MRU -> LRU order over slot ids. */
class RecencyList
{
  public:
    /** The null slot: past either end of the list. */
    static constexpr std::uint32_t kNil = 0xffffffffu;

    /** Add one unlinked slot. @return its id (ids count up from 0). */
    std::uint32_t
    addSlot()
    {
        links_.emplace_back();
        return static_cast<std::uint32_t>(links_.size() - 1);
    }

    /** Most recently used slot; kNil when empty. */
    std::uint32_t mru() const { return mru_; }
    /** Least recently used slot; kNil when empty. */
    std::uint32_t lru() const { return lru_; }
    /** The next slot towards the MRU end. */
    std::uint32_t newer(std::uint32_t slot) const { return links_[slot].newer; }
    /** The next slot towards the LRU end. */
    std::uint32_t older(std::uint32_t slot) const { return links_[slot].older; }

    /** Link @p slot in as the most recent. @pre slot is unlinked */
    void
    pushMru(std::uint32_t slot)
    {
        Link &link = links_[slot];
        link.newer = kNil;
        link.older = mru_;
        if (mru_ != kNil)
            links_[mru_].newer = slot;
        else
            lru_ = slot;
        mru_ = slot;
    }

    /** Take @p slot out of the order. @pre slot is linked */
    void
    unlink(std::uint32_t slot)
    {
        const Link link = links_[slot];
        if (link.newer != kNil)
            links_[link.newer].older = link.older;
        else
            mru_ = link.older;
        if (link.older != kNil)
            links_[link.older].newer = link.newer;
        else
            lru_ = link.newer;
    }

    /** Make linked @p slot the most recent. */
    void
    touch(std::uint32_t slot)
    {
        if (slot == mru_)
            return;
        unlink(slot);
        pushMru(slot);
    }

    /** Drop every slot. */
    void
    clear()
    {
        links_.clear();
        mru_ = lru_ = kNil;
    }

  private:
    struct Link
    {
        std::uint32_t newer = kNil;
        std::uint32_t older = kNil;
    };

    std::vector<Link> links_;
    std::uint32_t mru_ = kNil;
    std::uint32_t lru_ = kNil;
};

}  // namespace grit::sim

#endif  // GRIT_SIMCORE_RECENCY_LIST_H_
