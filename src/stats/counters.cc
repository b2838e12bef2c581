#include "stats/counters.h"

namespace grit::stats {

std::uint64_t
StatSet::get(const std::string &name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.value();
}

std::vector<std::pair<std::string, std::uint64_t>>
StatSet::items() const
{
    std::vector<std::pair<std::string, std::uint64_t>> out;
    out.reserve(counters_.size());
    for (const auto &[name, counter] : counters_)
        out.emplace_back(name, counter.value());
    return out;
}

}  // namespace grit::stats
