/**
 * @file
 * Open-addressing flat hash map for the simulator's small hot-path
 * indexes: sim::PageMap's leaf index, the page-walk cache, the TLB
 * holder filter, and the huge-page region sets and counters.
 *
 * Design goals, in order:
 *
 *  1. *Determinism.* The hash is a fixed integer mix (no per-process
 *     seed) and iteration order is a pure function of the operation
 *     sequence, so audits and JSON exports are byte-identical across
 *     runs, hosts, and standard libraries.
 *  2. *Pointer stability.* Entries live in chunked storage that never
 *     relocates; only the slot index rehashes. find()/operator[]
 *     references stay valid across inserts, erases, and rehashes —
 *     the same contract std::unordered_map gave the call sites.
 *  3. *Speed.* Lookup is one mixed hash, a power-of-two mask, and a
 *     linear probe over a dense index array (one cache line covers 16
 *     slots), instead of unordered_map's bucket-pointer chase.
 *
 * Erased entries leave a tombstone in the slot index (reclaimed on
 * rehash) and push their dense cell onto a free list for reuse, so
 * heavy churn (the walk-cache index, the TLB holder filter) does not
 * grow memory without bound: the index doubles only when live entries
 * need the room, and otherwise rebuilds in place to drop tombstones.
 */

#ifndef GRIT_SIMCORE_FLAT_MAP_H_
#define GRIT_SIMCORE_FLAT_MAP_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace grit::sim {

/** Deterministic (seedless) hash: the splitmix64 finalizer. */
template <typename Key>
struct FlatHash
{
    static_assert(std::is_integral_v<Key> || std::is_enum_v<Key>,
                  "FlatHash covers integral keys; supply a custom "
                  "deterministic hasher for anything else");

    std::uint64_t
    operator()(Key key) const
    {
        auto x = static_cast<std::uint64_t>(key);
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ull;
        x ^= x >> 27;
        x *= 0x94d049bb133111ebull;
        x ^= x >> 31;
        return x;
    }
};

/**
 * Open-addressing hash map with stable entry storage.
 *
 * Iteration yields `Entry` objects with `first`/`second` members (so
 * structured bindings read like std::unordered_map's) in dense-cell
 * order: insertion order until an erase recycles a cell, and always a
 * pure function of the operation sequence. Iterators are const —
 * mutate through find()/operator[].
 */
template <typename Key, typename Value, typename Hash = FlatHash<Key>>
class FlatMap
{
  public:
    struct Entry
    {
        Key first{};
        Value second{};
    };

    FlatMap() = default;
    FlatMap(const FlatMap &) = delete;
    FlatMap &operator=(const FlatMap &) = delete;
    FlatMap(FlatMap &&) = default;
    FlatMap &operator=(FlatMap &&) = default;

    /** Alive entries. */
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Look up @p key; nullptr when absent. */
    const Value *
    find(Key key) const
    {
        const std::uint32_t slot = probe(key);
        if (slot == kNotFound)
            return nullptr;
        return &cell(slots_[slot]).second;
    }

    Value *
    find(Key key)
    {
        return const_cast<Value *>(
            static_cast<const FlatMap *>(this)->find(key));
    }

    bool contains(Key key) const { return probe(key) != kNotFound; }

    /** Reference to @p key's value, default-constructed on first use. */
    Value &
    operator[](Key key)
    {
        return obtain(key);
    }

    /** Insert or overwrite. */
    void
    insertOrAssign(Key key, Value value)
    {
        obtain(key) = std::move(value);
    }

    /** Remove @p key. @return true when it existed. */
    bool
    erase(Key key)
    {
        const std::uint32_t slot = probe(key);
        if (slot == kNotFound)
            return false;
        const std::uint32_t idx = slots_[slot];
        slots_[slot] = kTombstone;
        ++tombstones_;
        // Reset the cell so value-owned memory (vectors, strings) is
        // released now, not when the cell is eventually recycled.
        cell(idx) = Entry{};
        alive_[idx] = 0;
        freeCells_.push_back(idx);
        --size_;
        return true;
    }

    /** Drop every entry and all storage. */
    void
    clear()
    {
        slots_.clear();
        chunks_.clear();
        alive_.clear();
        freeCells_.clear();
        mask_ = 0;
        size_ = 0;
        tombstones_ = 0;
        cells_ = 0;
    }

    /** Slot-index capacity (live entries, tombstones and free slots). */
    std::size_t slotCount() const { return slots_.size(); }

    /** Pre-size the slot index for @p expected entries. */
    void
    reserve(std::size_t expected)
    {
        std::size_t want = kMinSlots;
        while (want * 3 < expected * 4)  // target load factor < 0.75
            want *= 2;
        if (want > slots_.size())
            rehash(want);
    }

    /** Const forward iterator over alive entries in dense-cell order. */
    class const_iterator
    {
      public:
        const_iterator(const FlatMap *map, std::uint32_t idx)
            : map_(map), idx_(idx)
        {
            settle();
        }

        const Entry &operator*() const { return map_->cell(idx_); }
        const Entry *operator->() const { return &map_->cell(idx_); }

        const_iterator &
        operator++()
        {
            ++idx_;
            settle();
            return *this;
        }

        bool
        operator==(const const_iterator &other) const
        {
            return idx_ == other.idx_;
        }
        bool
        operator!=(const const_iterator &other) const
        {
            return idx_ != other.idx_;
        }

      private:
        void
        settle()
        {
            while (idx_ < map_->cells_ && !map_->alive_[idx_])
                ++idx_;
        }

        const FlatMap *map_;
        std::uint32_t idx_;
    };

    const_iterator begin() const { return const_iterator(this, 0); }
    const_iterator end() const { return const_iterator(this, cells_); }

  private:
    static constexpr std::uint32_t kEmpty = 0xffffffffu;
    static constexpr std::uint32_t kTombstone = 0xfffffffeu;
    static constexpr std::uint32_t kNotFound = 0xffffffffu;
    static constexpr std::size_t kMinSlots = 16;
    /** Entries per storage chunk (power of two). */
    static constexpr std::uint32_t kChunkShift = 9;
    static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
    static constexpr std::uint32_t kChunkMask = kChunkSize - 1;

    Entry &
    cell(std::uint32_t idx)
    {
        return chunks_[idx >> kChunkShift][idx & kChunkMask];
    }
    const Entry &
    cell(std::uint32_t idx) const
    {
        return chunks_[idx >> kChunkShift][idx & kChunkMask];
    }

    /** Slot index holding @p key, or kNotFound. */
    std::uint32_t
    probe(Key key) const
    {
        if (slots_.empty())
            return kNotFound;
        std::uint64_t h = Hash{}(key)&mask_;
        for (;;) {
            const std::uint32_t s = slots_[h];
            if (s == kEmpty)
                return kNotFound;
            if (s != kTombstone && cell(s).first == key)
                return static_cast<std::uint32_t>(h);
            h = (h + 1) & mask_;
        }
    }

    Value &
    obtain(Key key)
    {
        if (slots_.empty())
            rehash(kMinSlots);
        std::uint64_t h = Hash{}(key)&mask_;
        std::uint64_t insert_at = kEmpty;
        for (;;) {
            const std::uint32_t s = slots_[h];
            if (s == kEmpty)
                break;
            if (s == kTombstone) {
                if (insert_at == kEmpty)
                    insert_at = h;
            } else if (cell(s).first == key) {
                return cell(s).second;
            }
            h = (h + 1) & mask_;
        }
        // Not present: rebuild first if the index is getting crowded,
        // then re-derive the insertion point (the rehash moved
        // everything). Double only when live entries need the room;
        // under insert/erase churn the crowding is mostly tombstones,
        // and rebuilding at the current size clears them.
        if ((size_ + tombstones_ + 1) * 4 > slots_.size() * 3) {
            const bool live_crowded = (size_ + 1) * 2 > slots_.size();
            rehash(live_crowded ? slots_.size() * 2 : slots_.size());
            h = Hash{}(key)&mask_;
            while (slots_[h] != kEmpty)
                h = (h + 1) & mask_;
            insert_at = kEmpty;
        }
        if (insert_at != kEmpty) {
            h = insert_at;
            --tombstones_;
        }
        const std::uint32_t idx = allocateCell();
        cell(idx).first = key;
        alive_[idx] = 1;
        slots_[h] = idx;
        ++size_;
        return cell(idx).second;
    }

    std::uint32_t
    allocateCell()
    {
        if (!freeCells_.empty()) {
            const std::uint32_t idx = freeCells_.back();
            freeCells_.pop_back();
            return idx;
        }
        if ((cells_ & kChunkMask) == 0) {
            chunks_.push_back(std::make_unique<Entry[]>(kChunkSize));
            alive_.resize(alive_.size() + kChunkSize, 0);
        }
        return cells_++;
    }

    /** Rebuild the slot index at @p new_slots; cells never move. */
    void
    rehash(std::size_t new_slots)
    {
        assert((new_slots & (new_slots - 1)) == 0 && new_slots > 0);
        slots_.assign(new_slots, kEmpty);
        mask_ = new_slots - 1;
        tombstones_ = 0;
        for (std::uint32_t idx = 0; idx < cells_; ++idx) {
            if (!alive_[idx])
                continue;
            std::uint64_t h = Hash{}(cell(idx).first) & mask_;
            while (slots_[h] != kEmpty)
                h = (h + 1) & mask_;
            slots_[h] = idx;
        }
    }

    std::vector<std::uint32_t> slots_;
    std::vector<std::unique_ptr<Entry[]>> chunks_;
    std::vector<std::uint8_t> alive_;
    std::vector<std::uint32_t> freeCells_;
    std::uint64_t mask_ = 0;
    std::size_t size_ = 0;
    std::size_t tombstones_ = 0;
    std::uint32_t cells_ = 0;
};

}  // namespace grit::sim

#endif  // GRIT_SIMCORE_FLAT_MAP_H_
