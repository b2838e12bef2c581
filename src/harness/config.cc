#include "harness/config.h"

#include <algorithm>
#include <cctype>

namespace grit::harness {

const char *
policyKindName(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::kOnTouch:       return "on-touch";
      case PolicyKind::kAccessCounter: return "access-counter";
      case PolicyKind::kDuplication:   return "duplication";
      case PolicyKind::kFirstTouch:    return "first-touch";
      case PolicyKind::kIdeal:         return "ideal";
      case PolicyKind::kGrit:          return "grit";
      case PolicyKind::kGriffinDpc:    return "griffin-dpc";
      case PolicyKind::kGps:           return "gps";
    }
    return "?";
}

std::optional<PolicyKind>
policyKindFromName(const std::string &name)
{
    std::string lower;
    lower.reserve(name.size());
    for (char c : name)
        lower.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
    for (PolicyKind kind :
         {PolicyKind::kOnTouch, PolicyKind::kAccessCounter,
          PolicyKind::kDuplication, PolicyKind::kFirstTouch,
          PolicyKind::kIdeal, PolicyKind::kGrit, PolicyKind::kGriffinDpc,
          PolicyKind::kGps}) {
        if (lower == policyKindName(kind))
            return kind;
    }
    return std::nullopt;
}

std::vector<sim::SimError>
SystemConfig::validate() const
{
    std::vector<sim::SimError> out;
    auto bad = [&out](const std::string &message,
                      const std::string &where) {
        out.emplace_back(sim::ErrorCode::kConfigInvalid, message, where);
    };

    if (numGpus == 0 || numGpus > kMaxGpus)
        bad("the GPU count must be from 1 to " + std::to_string(kMaxGpus),
            "numGpus");
    for (sim::SimError &err : geometry.validate("geometry"))
        out.push_back(std::move(err));
    if (memoryFraction < 0.0)
        bad("memory fraction cannot be negative", "memoryFraction");

    if (counterThreshold == 0)
        bad("the access-counter threshold must be non-zero",
            "counterThreshold");
    if (policy == PolicyKind::kGrit && grit.faultThreshold == 0)
        bad("the GRIT fault threshold must be non-zero",
            "grit.faultThreshold");

    if (wallDeadlineSec < 0.0 || wallDeadlineSec != wallDeadlineSec)
        bad("the wall-clock deadline cannot be negative or NaN",
            "wallDeadlineSec");

    return out;
}

SystemConfig
makeConfig(PolicyKind policy, unsigned num_gpus)
{
    SystemConfig config;
    config.numGpus = num_gpus;
    config.policy = policy;
    return config;
}

}  // namespace grit::harness
