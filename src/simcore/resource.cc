#include "simcore/resource.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "simcore/first_min.h"

namespace grit::sim {

BandwidthResource::BandwidthResource(std::string name,
                                     double bytes_per_cycle,
                                     unsigned channels)
    : name_(std::move(name)),
      bytesPerCycle_(bytes_per_cycle),
      channelFree_(std::max(1u, channels), 0)
{
    assert(bytesPerCycle_ > 0.0);
}

Cycle
BandwidthResource::serviceCycles(std::uint64_t bytes) const
{
    if (bytes == 0)
        return 0;
    if (bytes != memoBytes_) {
        memoBytes_ = bytes;
        memoService_ = static_cast<Cycle>(
            std::ceil(static_cast<double>(bytes) / bytesPerCycle_));
    }
    return memoService_;
}

Cycle
BandwidthResource::acquire(Cycle now, std::uint64_t bytes)
{
    Cycle &free =
        channelFree_[firstMinIndex(channelFree_.data(), channelFree_.size())];
    const Cycle start = std::max(now, free);
    const Cycle service = serviceCycles(bytes);
    free = start + service;
    busy_ += service;
    bytes_ += bytes;
    return free;
}

Cycle
BandwidthResource::nextFree() const
{
    return channelFree_[firstMinIndex(channelFree_.data(),
                                      channelFree_.size())];
}

ServerPool::ServerPool(std::string name, unsigned servers)
    : name_(std::move(name)), freeAt_(std::max(1u, servers), 0)
{
}

Cycle
ServerPool::acquire(Cycle now, Cycle service)
{
    Cycle &free = freeAt_[firstMinIndex(freeAt_.data(), freeAt_.size())];
    const Cycle start = std::max(now, free);
    const Cycle done = start + service;
    free = done;
    ++requests_;
    busy_ += service;
    queueDelay_ += start - now;
    return done;
}

}  // namespace grit::sim
