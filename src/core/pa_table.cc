#include "core/pa_table.h"

namespace grit::core {

const PaEntry *
PaTable::find(sim::PageId vpn) const
{
    ++reads_;
    return entries_.find(vpn);
}

void
PaTable::put(sim::PageId vpn, const PaEntry &entry)
{
    ++writes_;
    entries_[vpn] = entry;
}

bool
PaTable::erase(sim::PageId vpn)
{
    ++writes_;
    return entries_.erase(vpn);
}

}  // namespace grit::core
