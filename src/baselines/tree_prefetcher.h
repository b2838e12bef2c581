/**
 * @file
 * Tree-based neighborhood prefetcher (Ganguly et al., ISCA 2019; paper
 * Section VI-E), as implemented in the NVIDIA UVM driver.
 *
 * The address space is covered by full binary trees whose root nodes
 * span 2 MB regions and whose leaves are 64 KB basic blocks. The
 * runtime tracks, per GPU, how much of each node's span is already
 * resident on that GPU; when a GPU's occupancy of a non-leaf node
 * exceeds 50 % of the node's capacity, the remaining leaf blocks under
 * that node are prefetched to the GPU in the background. Composes with
 * any placement policy via UvmDriver's PlacementListener hook.
 */

#ifndef GRIT_BASELINES_TREE_PREFETCHER_H_
#define GRIT_BASELINES_TREE_PREFETCHER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "simcore/types.h"
#include "uvm/uvm_driver.h"

namespace grit::baselines {

/** Tree prefetcher geometry (the Simulator sizes the blocks). */
struct PrefetcherConfig
{
    /** Pages per leaf basic block (64 KB of 4 KB pages). */
    unsigned pagesPerBlock = 16;
    /** Leaf blocks per tree root (2 MB / 64 KB). */
    unsigned blocksPerRoot = 32;
};

/** The UVM-driver neighborhood prefetcher. */
class TreePrefetcher : public uvm::PlacementListener
{
  public:
    /**
     * @param driver the driver issuing the background prefetches.
     * @param config geometry; defaults match the ISCA'19 description.
     */
    TreePrefetcher(uvm::UvmDriver &driver,
                   const PrefetcherConfig &config = {});

    /** Placement notification from the driver. */
    void onPlaced(sim::GpuId gpu, sim::PageId page, sim::Cycle now) override;

    std::uint64_t prefetchedPages() const { return prefetched_; }
    std::uint64_t triggers() const { return triggers_; }

  private:
    /** Key of the 2 MB tree containing @p page for @p gpu. */
    std::uint64_t rootKey(sim::GpuId gpu, sim::PageId page) const;

    /** Leaf block index of @p page within its tree. */
    unsigned blockIndex(sim::PageId page) const;

    /** Prefetch all non-resident leaves under [first, last) blocks. */
    void prefetchSpan(sim::GpuId gpu, sim::PageId root_first_page,
                      unsigned first_block, unsigned last_block,
                      sim::Cycle now);

    uvm::UvmDriver &driver_;
    PrefetcherConfig config_;
    /** (gpu, root) -> per-leaf resident-page counts on that GPU. */
    std::unordered_map<std::uint64_t, std::vector<std::uint16_t>> trees_;
    std::uint64_t prefetched_ = 0;
    std::uint64_t triggers_ = 0;
    bool inPrefetch_ = false;  //!< break recursion from our own placements
};

}  // namespace grit::baselines

#endif  // GRIT_BASELINES_TREE_PREFETCHER_H_
