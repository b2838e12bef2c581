#include "mem/page_table.h"

namespace grit::mem {

const PteRecord *
PageTable::find(sim::PageId page) const
{
    return entries_.find(page);
}

PteRecord *
PageTable::find(sim::PageId page)
{
    return entries_.find(page);
}

bool
PageTable::translates(sim::PageId page) const
{
    const PteRecord *rec = find(page);
    return rec != nullptr && rec->pte.valid();
}

PteRecord &
PageTable::obtain(sim::PageId page)
{
    return entries_[page];
}

PteRecord &
PageTable::install(sim::PageId page, MappingKind kind, sim::GpuId location,
                   bool writable, bool read_only_replica)
{
    PteRecord &rec = obtain(page);
    rec.pte.setValid(true);
    rec.pte.setWritable(writable);
    rec.pte.setAccessed(true);
    rec.pte.setRemote(kind == MappingKind::kRemote);
    rec.pte.setLocation(location);
    rec.pte.setReadOnlyReplica(read_only_replica);
    return rec;
}

void
PageTable::invalidate(sim::PageId page)
{
    if (PteRecord *rec = find(page)) {
        rec->pte.setValid(false);
        rec->pte.setReadOnlyReplica(false);
        rec->pte.setLocation(sim::kNoGpu);
    }
}

void
PageTable::erase(sim::PageId page)
{
    entries_.erase(page);
}

Scheme
PageTable::scheme(sim::PageId page) const
{
    const PteRecord *rec = find(page);
    return rec ? rec->pte.scheme() : Scheme::kNone;
}

void
PageTable::setScheme(sim::PageId page, Scheme scheme)
{
    obtain(page).pte.setScheme(scheme);
}

GroupBits
PageTable::groupBits(sim::PageId page) const
{
    const PteRecord *rec = find(page);
    return rec ? rec->pte.groupBits() : GroupBits::kPages1;
}

void
PageTable::setGroupBits(sim::PageId page, GroupBits bits)
{
    obtain(page).pte.setGroupBits(bits);
}

std::size_t
PageTable::validCount() const
{
    std::size_t n = 0;
    for (const auto &[page, rec] : entries_)
        if (rec.pte.valid())
            ++n;
    return n;
}

}  // namespace grit::mem
