#include "mem/access_counter.h"

#include <cassert>

namespace grit::mem {

AccessCounterTable::AccessCounterTable(unsigned pages_per_group,
                                       unsigned threshold)
    : pagesPerGroup_(pages_per_group), threshold_(threshold)
{
    assert(pagesPerGroup_ > 0);
    assert(threshold_ > 0);
}

bool
AccessCounterTable::recordRemoteAccess(sim::PageId page)
{
    unsigned &count = counts_[groupOf(page)];
    if (++count >= threshold_) {
        count = 0;
        ++triggers_;
        return true;
    }
    return false;
}

unsigned
AccessCounterTable::count(sim::PageId page) const
{
    auto it = counts_.find(groupOf(page));
    return it == counts_.end() ? 0 : it->second;
}

void
AccessCounterTable::clear(sim::PageId page)
{
    counts_.erase(groupOf(page));
}

}  // namespace grit::mem
