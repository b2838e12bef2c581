/**
 * @file
 * Page-indexed map: the storage of the simulator's per-page tables
 * (mem::PageTable, uvm::ReplicaDirectory, core::PaTable, the DRAM
 * manager's frame index, and the UVM fault coalescer).
 *
 * Page ids are dense: RegionAllocator hands every buffer a contiguous
 * id range, so the pages a run touches cluster into a few runs of
 * consecutive ids. The map exploits that with a two-level layout:
 *
 *  - values sit in fixed dense *leaves* of 512 consecutive pages (one
 *    2 MB region of 4 KB pages), each with a presence bitmap, so a
 *    lookup is one small index probe plus a direct array access, and
 *    neighbouring pages share cache lines;
 *  - a small FlatMap index (one entry per leaf) finds each leaf.
 *
 * Memory is one leaf per touched 512-page block, independent of how
 * many of its pages are present.
 *
 * Contracts, as FlatMap gave its former call sites:
 *
 *  1. *Pointer stability.* Leaves never move and are never freed
 *     before clear(), so find()/operator[] pointers and references
 *     stay valid across inserts and erases.
 *  2. *Determinism.* Iteration visits leaves in creation order, then
 *     pages in ascending order within a leaf: a pure function of the
 *     operation sequence.
 *  3. *No hidden state.* Const lookups mutate nothing, so concurrent
 *     readers of a const map are safe.
 */

#ifndef GRIT_SIMCORE_PAGE_MAP_H_
#define GRIT_SIMCORE_PAGE_MAP_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "simcore/flat_map.h"

namespace grit::sim {

/** Map from 64-bit page keys to @p Value in 512-page dense leaves. */
template <typename Value>
class PageMap
{
  public:
    /** log2 of the pages per leaf. */
    static constexpr unsigned kLeafShift = 9;
    static constexpr std::uint64_t kLeafPages = std::uint64_t{1}
                                                << kLeafShift;

    /** What iteration yields; `first`/`second` as std::map's pairs. */
    struct Entry
    {
        std::uint64_t first;
        const Value &second;
    };

    PageMap() = default;
    PageMap(const PageMap &) = delete;
    PageMap &operator=(const PageMap &) = delete;
    PageMap(PageMap &&) = default;
    PageMap &operator=(PageMap &&) = default;

    /** Present entries. */
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Look up @p page; nullptr when absent. */
    const Value *
    find(std::uint64_t page) const
    {
        const Leaf *leaf = leafOf(page);
        if (leaf == nullptr)
            return nullptr;
        const unsigned i = offsetOf(page);
        return leaf->has(i) ? &leaf->values[i] : nullptr;
    }

    Value *
    find(std::uint64_t page)
    {
        return const_cast<Value *>(
            static_cast<const PageMap *>(this)->find(page));
    }

    bool contains(std::uint64_t page) const { return find(page) != nullptr; }

    /** Reference to @p page's value, default-constructed on first use. */
    Value &
    operator[](std::uint64_t page)
    {
        Leaf *leaf = leafOf(page);
        if (leaf == nullptr)
            leaf = addLeaf(page >> kLeafShift);
        const unsigned i = offsetOf(page);
        if (!leaf->has(i)) {
            leaf->present[i >> 6] |= std::uint64_t{1} << (i & 63);
            ++size_;
        }
        return leaf->values[i];
    }

    /**
     * Remove @p page, resetting its slot to a default value so
     * value-owned memory is released now. @return true when present.
     */
    bool
    erase(std::uint64_t page)
    {
        Leaf *leaf = leafOf(page);
        if (leaf == nullptr)
            return false;
        const unsigned i = offsetOf(page);
        if (!leaf->has(i))
            return false;
        leaf->present[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
        leaf->values[i] = Value{};
        --size_;
        return true;
    }

    /** Drop every entry and all storage. */
    void
    clear()
    {
        index_.clear();
        leaves_.clear();
        size_ = 0;
    }

    /** Leaves allocated (one per touched 512-page block). */
    std::size_t leafCount() const { return leaves_.size(); }

    /** Const forward iterator: leaf-creation order, then page order. */
    class const_iterator
    {
      public:
        const_iterator(const PageMap *map, std::size_t leaf)
            : map_(map), leaf_(leaf)
        {
            settle();
        }

        Entry
        operator*() const
        {
            const Leaf &leaf = *map_->leaves_[leaf_];
            return Entry{leaf.key << kLeafShift | offset_,
                         leaf.values[offset_]};
        }

        const_iterator &
        operator++()
        {
            ++offset_;
            settle();
            return *this;
        }

        bool
        operator==(const const_iterator &other) const
        {
            return leaf_ == other.leaf_ && offset_ == other.offset_;
        }
        bool
        operator!=(const const_iterator &other) const
        {
            return !(*this == other);
        }

      private:
        /** Advance to the next present page at or after the cursor. */
        void
        settle()
        {
            while (leaf_ < map_->leaves_.size()) {
                const Leaf &leaf = *map_->leaves_[leaf_];
                for (unsigned w = offset_ >> 6; w < kWords; ++w) {
                    std::uint64_t bits = leaf.present[w];
                    if (w == offset_ >> 6)
                        bits &= ~std::uint64_t{0} << (offset_ & 63);
                    if (bits != 0) {
                        offset_ = w * 64 +
                                  static_cast<unsigned>(
                                      std::countr_zero(bits));
                        return;
                    }
                }
                ++leaf_;
                offset_ = 0;
            }
            offset_ = 0;  // end(): every exhausted cursor compares equal
        }

        const PageMap *map_;
        std::size_t leaf_;
        unsigned offset_ = 0;
    };

    const_iterator begin() const { return const_iterator(this, 0); }
    const_iterator
    end() const
    {
        return const_iterator(this, leaves_.size());
    }

  private:
    static constexpr unsigned kWords = kLeafPages / 64;

    struct Leaf
    {
        std::uint64_t present[kWords] = {};
        std::uint64_t key = 0;  //!< page >> kLeafShift
        Value values[kLeafPages] = {};

        bool
        has(unsigned i) const
        {
            return (present[i >> 6] >> (i & 63)) & 1;
        }
    };

    static unsigned
    offsetOf(std::uint64_t page)
    {
        return static_cast<unsigned>(page & (kLeafPages - 1));
    }

    Leaf *
    leafOf(std::uint64_t page) const
    {
        Leaf *const *leaf = index_.find(page >> kLeafShift);
        return leaf != nullptr ? *leaf : nullptr;
    }

    Leaf *
    addLeaf(std::uint64_t key)
    {
        leaves_.push_back(std::make_unique<Leaf>());
        Leaf *leaf = leaves_.back().get();
        leaf->key = key;
        index_[key] = leaf;
        return leaf;
    }

    /** Leaf key -> leaf; the leaves themselves are owned below. */
    FlatMap<std::uint64_t, Leaf *> index_;
    /** Leaves in creation order (the iteration order). */
    std::vector<std::unique_ptr<Leaf>> leaves_;
    std::size_t size_ = 0;
};

}  // namespace grit::sim

#endif  // GRIT_SIMCORE_PAGE_MAP_H_
