/**
 * @file
 * Set bookkeeping shared by the set-associative TLB and L2 cache: the
 * set index, per-set live-way bit masks, and the scan for a key's live
 * copy.
 *
 * Each set keeps one bit per way (ceil(ways / 64) words, so any
 * associativity works), and a fill finds its free way with one bit scan
 * instead of a compare per way. A whole-structure flush stays O(1): it
 * bumps a generation, and a set stamped with an older generation reads
 * as empty until its next fill clears and restamps it.
 */

#ifndef GRIT_MEM_LIVE_WAYS_H_
#define GRIT_MEM_LIVE_WAYS_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace grit::mem {

/** Live-way masks over @c sets sets of @c ways ways. */
class LiveWays
{
  public:
    static constexpr std::size_t kNone = ~std::size_t{0};

    LiveWays(unsigned sets, unsigned ways)
        : sets_(sets),
          pow2Sets_(std::has_single_bit(sets)),
          ways_(ways),
          perSet_((ways + 63) / 64),
          tail_(ways % 64 == 0 ? ~std::uint64_t{0}
                               : (std::uint64_t{1} << (ways % 64)) - 1),
          words_(std::size_t{sets} * perSet_, 0),
          setGen_(sets, 0)
    {
    }

    /** The set @p key maps to (key modulo the set count). */
    std::size_t
    setOf(std::uint64_t key) const
    {
        // Table I's set counts are powers of two: mask, don't divide.
        return pow2Sets_ ? key & (sets_ - 1) : key % sets_;
    }

    /** @p set's mask words, or nullptr when a flush emptied the set. */
    const std::uint64_t *
    find(std::size_t set) const
    {
        return setGen_[set] == gen_ ? &words_[set * perSet_] : nullptr;
    }

    /** @p set's mask words for writing; an emptied set is reset first. */
    std::uint64_t *
    fill(std::size_t set)
    {
        std::uint64_t *words = &words_[set * perSet_];
        if (setGen_[set] != gen_) {
            std::fill(words, words + perSet_, 0);
            setGen_[set] = gen_;
        }
        return words;
    }

    /**
     * Slot (set * ways + way) of the first live way of @p set whose key
     * in @p keys (indexed by slot) is @p key, or kNone. Blocks of four
     * with a branch-free any-match reduction: a miss, which scans every
     * way, costs one branch per block. A dead match does not count.
     */
    std::size_t
    firstLive(std::size_t set, const std::uint64_t *keys,
              std::uint64_t key) const
    {
        const std::uint64_t *live = find(set);
        if (live == nullptr)
            return kNone;
        const std::size_t base = set * ways_;
        const std::size_t end = base + ways_;
        std::size_t i = base;
        for (; i + 4 <= end; i += 4) {
            const bool any = (keys[i] == key) | (keys[i + 1] == key) |
                             (keys[i + 2] == key) | (keys[i + 3] == key);
            if (!any)
                continue;
            for (std::size_t j = i; j < i + 4; ++j)
                if (keys[j] == key && isLive(live, j - base))
                    return j;
        }
        for (; i < end; ++i)
            if (keys[i] == key && isLive(live, i - base))
                return i;
        return kNone;
    }

    static bool
    isLive(const std::uint64_t *words, std::size_t way)
    {
        return (words[way >> 6] >> (way & 63)) & 1;
    }

    static void
    markLive(std::uint64_t *words, std::size_t way)
    {
        words[way >> 6] |= std::uint64_t{1} << (way & 63);
    }

    static void
    markDead(std::uint64_t *words, std::size_t way)
    {
        words[way >> 6] &= ~(std::uint64_t{1} << (way & 63));
    }

    /** Lowest dead way of @p words, or ways when the set is full. */
    std::size_t
    firstDead(const std::uint64_t *words) const
    {
        for (unsigned w = 0; w < perSet_; ++w) {
            const std::uint64_t dead = ~words[w] & valid(w);
            if (dead != 0)
                return w * std::size_t{64} + std::countr_zero(dead);
        }
        return ways_;
    }

    /** Call @p fn(way) for each live way of @p set in ascending order. */
    template <typename Fn>
    void
    forEachLive(std::size_t set, Fn &&fn) const
    {
        const std::uint64_t *words = find(set);
        if (words == nullptr)
            return;
        for (unsigned w = 0; w < perSet_; ++w)
            for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1)
                fn(w * std::size_t{64} + std::countr_zero(bits));
    }

    /** Kill every set at once. */
    void flushAll() { ++gen_; }

  private:
    /** Bits of word @p w that name real ways. */
    std::uint64_t
    valid(unsigned w) const
    {
        return w + 1 == perSet_ ? tail_ : ~std::uint64_t{0};
    }

    unsigned sets_;
    bool pow2Sets_;
    unsigned ways_;
    unsigned perSet_;     // mask words per set
    std::uint64_t tail_;  // real-way bits of a set's last word
    std::vector<std::uint64_t> words_;   // set * perSet_ + word
    std::vector<std::uint64_t> setGen_;  // generation of each set's words
    std::uint64_t gen_ = 1;
};

}  // namespace grit::mem

#endif  // GRIT_MEM_LIVE_WAYS_H_
