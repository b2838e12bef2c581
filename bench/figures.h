/**
 * @file
 * The figure registry: every figure, table and ablation binary as data.
 *
 * A sweep figure is a plan builder, which lays out its lineup over
 * configs from the driver's factory (SweepFlags::config), and a report
 * printer. A characterization figure is a table builder, which prints
 * its report and returns the tables its JSON document carries. The
 * driver (driver.cc) owns everything else: flags, workload parameters,
 * the engine, the resilient sweep, the JSON document and the exit code.
 * Each binary is figure_main.cc compiled with its figure's name.
 */

#ifndef GRIT_BENCH_FIGURES_H_
#define GRIT_BENCH_FIGURES_H_

#include <string_view>
#include <vector>

#include "harness/experiment_engine.h"
#include "harness/results_io.h"

namespace grit::bench {

struct SweepFlags;

/** One registry entry: a sweep figure or a characterization figure. */
struct Figure
{
    const char *name;   //!< binary name and JSON generator
    const char *title;  //!< --help line and JSON title

    /**
     * Sweep figure: the lineup. It may adjust @p params, which the JSON
     * document then reports (fig_pagesize enlarges its inputs).
     */
    harness::RunPlan (*plan)(const SweepFlags &flags,
                             workload::WorkloadParams &params) = nullptr;
    /** Sweep figure: print the report of the swept matrix. */
    void (*report)(const harness::ResultMatrix &matrix,
                   const SweepFlags &flags) = nullptr;

    /**
     * Characterization figure (plan and report null): print the report
     * and return the tables of its JSON document.
     */
    std::vector<harness::NamedTable> (*tables)(
        const workload::WorkloadParams &params) = nullptr;
};

/** The registered figure called @p name; nullptr when there is none. */
const Figure *findFigure(std::string_view name);

/**
 * The main of figure @p name (driver.cc): a sweep figure takes the
 * sweep flag set, a characterization figure only `--jobs` and `--json`.
 */
int figureMain(std::string_view name, int argc, char **argv);

}  // namespace grit::bench

#endif  // GRIT_BENCH_FIGURES_H_
