#include "uvm/replica_directory.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

#include "simcore/trace_recorder.h"

namespace grit::uvm {

PageInfo::PageInfo(PageInfo &&other) noexcept
{
    *this = std::move(other);
}

PageInfo &
PageInfo::operator=(PageInfo &&other) noexcept
{
    if (this != &other) {
        release();
        owner_ = other.owner_;
        flags_ = other.flags_;
        replicaCount_ = other.replicaCount_;
        mapperCount_ = other.mapperCount_;
        std::copy_n(other.slots_, kInlineIds, slots_);
        other.flags_ &= ~kSpilled;
        other.replicaCount_ = other.mapperCount_ = 0;
    }
    return *this;
}

void
PageInfo::release()
{
    if (flags_ & kSpilled)
        delete[] ids();
}

std::int8_t *
PageInfo::ids() const
{
    std::int8_t *xs = const_cast<std::int8_t *>(slots_);
    if (flags_ & kSpilled)
        std::memcpy(&xs, slots_, sizeof xs);
    return xs;
}

void
PageInfo::insertAt(unsigned pos, sim::GpuId gpu)
{
    assert(gpu >= 0 && gpu < static_cast<sim::GpuId>(kMaxGpus));
    const unsigned n = replicaCount_ + mapperCount_;
    if (!(flags_ & kSpilled) && n == kInlineIds) {
        std::int8_t *block = new std::int8_t[2 * kMaxGpus];
        std::copy_n(slots_, n, block);
        std::memcpy(slots_, &block, sizeof block);
        flags_ |= kSpilled;
    }
    assert(n < 2 * kMaxGpus);
    std::int8_t *xs = ids();
    std::copy_backward(xs + pos, xs + n, xs + n + 1);
    xs[pos] = static_cast<std::int8_t>(gpu);
}

unsigned
PageInfo::eraseAll(unsigned first, unsigned count, sim::GpuId gpu)
{
    std::int8_t *xs = ids();
    std::int8_t *last = xs + first + count;
    std::int8_t *kept = std::remove(xs + first, last, gpu);
    std::copy(last, xs + replicaCount_ + mapperCount_, kept);
    return static_cast<unsigned>(last - kept);
}

bool
PageInfo::hasReplica(sim::GpuId gpu) const
{
    return std::ranges::count(replicas(), gpu) != 0;
}

bool
PageInfo::hasRemoteMapper(sim::GpuId gpu) const
{
    return std::ranges::count(remoteMappers(), gpu) != 0;
}

void
PageInfo::addReplica(sim::GpuId gpu)
{
    if (!hasReplica(gpu))
        appendReplica(gpu);
}

void
PageInfo::appendReplica(sim::GpuId gpu)
{
    insertAt(replicaCount_, gpu);
    ++replicaCount_;
}

void
PageInfo::removeReplica(sim::GpuId gpu)
{
    replicaCount_ -= eraseAll(0, replicaCount_, gpu);
}

void
PageInfo::addRemoteMapper(sim::GpuId gpu)
{
    if (!hasRemoteMapper(gpu)) {
        insertAt(replicaCount_ + mapperCount_, gpu);
        ++mapperCount_;
    }
}

void
PageInfo::removeRemoteMapper(sim::GpuId gpu)
{
    mapperCount_ -= eraseAll(replicaCount_, mapperCount_, gpu);
}

void
PageInfo::clearReplicas()
{
    std::int8_t *xs = ids();
    std::copy_n(xs + replicaCount_, mapperCount_, xs);
    replicaCount_ = 0;
}

const PageInfo *
ReplicaDirectory::find(sim::PageId page) const
{
    return pages_.find(page);
}

sim::GpuId
ReplicaDirectory::ownerOf(sim::PageId page) const
{
    const PageInfo *info = find(page);
    return info ? info->owner() : sim::kHostId;
}

bool
ReplicaDirectory::touched(sim::PageId page) const
{
    const PageInfo *info = find(page);
    return info != nullptr && info->touched();
}

void
ReplicaDirectory::addReplica(sim::PageId page, sim::GpuId gpu,
                             sim::Cycle now)
{
    PageInfo &record = info(page);
    if (record.hasReplica(gpu))
        return;
    record.addReplica(gpu);
    ++totalReplicas_;
    if (trace_)
        trace_->record("replica_add", "dir", now, 0, gpu, page);
}

void
ReplicaDirectory::removeReplica(sim::PageId page, sim::GpuId gpu,
                                sim::Cycle now)
{
    PageInfo &record = info(page);
    if (!record.hasReplica(gpu))
        return;
    record.removeReplica(gpu);
    --totalReplicas_;
    if (trace_)
        trace_->record("replica_drop", "dir", now, 0, gpu, page);
}

void
ReplicaDirectory::clearReplicas(sim::PageId page, sim::Cycle now)
{
    PageInfo &record = info(page);
    totalReplicas_ -= record.replicas().size();
    if (trace_) {
        for (const sim::GpuId gpu : record.replicas())
            trace_->record("replica_drop", "dir", now, 0, gpu, page);
    }
    record.clearReplicas();
}

}  // namespace grit::uvm
