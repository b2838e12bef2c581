#include "harness/experiment.h"

#include <stdexcept>

namespace grit::harness {

RunResult
runWorkload(const SystemConfig &config, const workload::Workload &workload)
{
    // The simulator dies before this call returns, so a non-owning
    // handle to the caller's workload is enough.
    const workload::WorkloadHandle view(workload::WorkloadHandle{},
                                        &workload);
    Simulator simulator(config, workload::streamWorkload(view));
    return simulator.run();
}

RunResult
runApp(workload::AppId app, const SystemConfig &config,
       const workload::WorkloadParams &params)
{
    workload::WorkloadParams p = params;
    p.numGpus = config.numGpus;
    return runWorkload(config, workload::makeWorkload(app, p));
}

double
speedupOver(const RunResult &base, const RunResult &test)
{
    if (test.cycles == 0)
        throw std::invalid_argument(
            "speedupOver: test run has zero cycles (did the simulation "
            "run?)");
    return static_cast<double>(base.cycles) /
           static_cast<double>(test.cycles);
}

std::map<std::string, double>
speedupsVs(const ResultMatrix &matrix, const std::string &base_label,
           const std::string &test_label)
{
    std::map<std::string, double> out;
    for (const auto &[app, runs] : matrix) {
        const auto base = runs.find(base_label);
        const auto test = runs.find(test_label);
        if (base == runs.end() || test == runs.end())
            continue;
        out[app] = speedupOver(base->second, test->second);
    }
    return out;
}

double
meanImprovementPct(const ResultMatrix &matrix,
                   const std::string &base_label,
                   const std::string &test_label)
{
    const auto speedups = speedupsVs(matrix, base_label, test_label);
    if (speedups.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &[app, s] : speedups)
        sum += s - 1.0;
    return 100.0 * sum / static_cast<double>(speedups.size());
}

}  // namespace grit::harness
