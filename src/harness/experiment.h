/**
 * @file
 * Experiment runner: convenience wrappers that run applications under
 * policies and compute the normalized speedups the paper reports.
 */

#ifndef GRIT_HARNESS_EXPERIMENT_H_
#define GRIT_HARNESS_EXPERIMENT_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "harness/config.h"
#include "harness/simulator.h"
#include "workload/apps.h"

namespace grit::harness {

/** Run @p workload once under @p config. */
RunResult runWorkload(const SystemConfig &config,
                      const workload::Workload &workload);

/** Generate @p app's trace and run it under @p config. */
RunResult runApp(workload::AppId app, const SystemConfig &config,
                 const workload::WorkloadParams &params = {});

/**
 * Speedup of @p test over @p base: base.cycles / test.cycles.
 * @throws std::invalid_argument when @p test ran for zero cycles.
 */
double speedupOver(const RunResult &base, const RunResult &test);

/**
 * Per-app results for a set of configurations.
 * rows: app abbreviation -> (config label -> result).
 */
using ResultMatrix =
    std::map<std::string, std::map<std::string, RunResult>>;

/** A labeled configuration for matrix runs. */
struct LabeledConfig
{
    std::string label;
    SystemConfig config;
};

/**
 * The paper's headline metric: mean over apps of
 * (base_time / test_time - 1), in percent.
 */
double meanImprovementPct(const ResultMatrix &matrix,
                          const std::string &base_label,
                          const std::string &test_label);

/** Per-app speedups of @p test_label normalized to @p base_label. */
std::map<std::string, double> speedupsVs(const ResultMatrix &matrix,
                                         const std::string &base_label,
                                         const std::string &test_label);

}  // namespace grit::harness

#endif  // GRIT_HARNESS_EXPERIMENT_H_
