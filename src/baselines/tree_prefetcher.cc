#include "baselines/tree_prefetcher.h"

#include <algorithm>
#include <cassert>

namespace grit::baselines {

namespace {

/** Node occupancy fraction that triggers prefetch. */
constexpr double kThreshold = 0.5;

}  // namespace

TreePrefetcher::TreePrefetcher(uvm::UvmDriver &driver,
                               const PrefetcherConfig &config)
    : driver_(driver), config_(config)
{
    assert(config_.pagesPerBlock > 0);
    assert(config_.blocksPerRoot > 1);
    driver_.setListener(this);
}

std::uint64_t
TreePrefetcher::rootKey(sim::GpuId gpu, sim::PageId page) const
{
    const std::uint64_t pages_per_root =
        static_cast<std::uint64_t>(config_.pagesPerBlock) *
        config_.blocksPerRoot;
    const std::uint64_t root = page / pages_per_root;
    return root * 64 + static_cast<std::uint64_t>(gpu);
}

unsigned
TreePrefetcher::blockIndex(sim::PageId page) const
{
    const std::uint64_t pages_per_root =
        static_cast<std::uint64_t>(config_.pagesPerBlock) *
        config_.blocksPerRoot;
    return static_cast<unsigned>((page % pages_per_root) /
                                 config_.pagesPerBlock);
}

void
TreePrefetcher::prefetchSpan(sim::GpuId gpu, sim::PageId root_first_page,
                             unsigned first_block, unsigned last_block,
                             sim::Cycle now)
{
    auto &leaves = trees_[rootKey(gpu, root_first_page)];
    for (unsigned b = first_block; b < last_block; ++b) {
        for (unsigned i = 0; i < config_.pagesPerBlock; ++i) {
            const sim::PageId p = root_first_page +
                                  static_cast<sim::PageId>(b) *
                                      config_.pagesPerBlock +
                                  i;
            if (driver_.directory().ownerOf(p) != sim::kHostId)
                continue;  // resident somewhere already
            driver_.prefetchPage(p, gpu, now);
            leaves[b] = std::min<std::uint16_t>(
                leaves[b] + 1,
                static_cast<std::uint16_t>(config_.pagesPerBlock));
            ++prefetched_;
        }
    }
}

void
TreePrefetcher::onPlaced(sim::GpuId gpu, sim::PageId page, sim::Cycle now)
{
    if (inPrefetch_ || gpu < 0)
        return;

    const std::uint64_t pages_per_root =
        static_cast<std::uint64_t>(config_.pagesPerBlock) *
        config_.blocksPerRoot;
    const sim::PageId root_first_page = page - (page % pages_per_root);

    auto &leaves = trees_[rootKey(gpu, page)];
    if (leaves.size() < config_.blocksPerRoot)
        leaves.resize(config_.blocksPerRoot, 0);
    const unsigned block = blockIndex(page);
    leaves[block] = std::min<std::uint16_t>(
        leaves[block] + 1,
        static_cast<std::uint16_t>(config_.pagesPerBlock));

    // Climb the binary tree: spans of 2, 4, ... blocksPerRoot leaves.
    inPrefetch_ = true;
    for (unsigned span = 2; span <= config_.blocksPerRoot; span *= 2) {
        const unsigned start = (block / span) * span;
        const unsigned end =
            std::min(start + span, config_.blocksPerRoot);
        std::uint64_t resident = 0;
        for (unsigned b = start; b < end; ++b)
            resident += leaves[b];
        const std::uint64_t capacity =
            static_cast<std::uint64_t>(end - start) *
            config_.pagesPerBlock;
        if (resident >= capacity)
            continue;  // node already full; check the parent
        if (static_cast<double>(resident) >
            kThreshold * static_cast<double>(capacity)) {
            ++triggers_;
            prefetchSpan(gpu, root_first_page, start, end, now);
        }
    }
    inPrefetch_ = false;
}

}  // namespace grit::baselines
