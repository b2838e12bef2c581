/**
 * @file
 * Every figure, table and ablation binary as data (figures.h): one
 * namespace per figure, then the registry. A sweep figure builds its
 * configs with the driver's factory (SweepFlags::config), so every
 * command-line flag reaches every cell; a figure that owns an axis
 * writes it afterwards. The "(paper: ...)" lines quote the paper.
 */

#include "figures.h"

#include <algorithm>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "driver.h"
#include "harness/table.h"
#include "mem/pte.h"
#include "stats/latency_breakdown.h"
#include "workload/characterizer.h"
#include "workload/dnn.h"

namespace grit::bench {

namespace {

using harness::LabeledConfig;
using harness::NamedTable;
using harness::PolicyKind;
using harness::ResultMatrix;
using harness::RunPlan;
using harness::TextTable;
using workload::WorkloadParams;

/** The uniform schemes the paper compares against, in report order. */
const std::vector<std::string> kUniformLabels = {
    "on-touch", "access-counter", "duplication"};

/** The Fig. 17 lineup: the uniform schemes plus GRIT. */
const std::vector<std::string> kMainLabels = {
    "on-touch", "access-counter", "duplication", "grit"};

/** The three uniform schemes, from the factory. */
std::vector<LabeledConfig>
uniformConfigs(const SweepFlags &flags, unsigned num_gpus = 4)
{
    return {
        {"on-touch", flags.config(PolicyKind::kOnTouch, num_gpus)},
        {"access-counter",
         flags.config(PolicyKind::kAccessCounter, num_gpus)},
        {"duplication", flags.config(PolicyKind::kDuplication, num_gpus)},
    };
}

/** Uniform schemes + GRIT (the Fig. 17 lineup). */
std::vector<LabeledConfig>
mainConfigs(const SweepFlags &flags, unsigned num_gpus = 4)
{
    auto configs = uniformConfigs(flags, num_gpus);
    configs.push_back({"grit", flags.config(PolicyKind::kGrit, num_gpus)});
    return configs;
}

/** GRIT with the PA-Cache and Neighboring-Aware Prediction on or off. */
harness::SystemConfig
gritVariant(const SweepFlags &flags, bool pa_cache, bool nap)
{
    harness::SystemConfig config = flags.config(PolicyKind::kGrit);
    config.grit.paCacheEnabled = pa_cache;
    config.grit.napEnabled = nap;
    return config;
}

/** Every Table II app under every config. */
RunPlan
appSweep(const std::vector<LabeledConfig> &configs,
         const WorkloadParams &params)
{
    return RunPlan::matrix({workload::kAllApps.begin(),
                            workload::kAllApps.end()},
                           configs, params);
}

/** Print a normalized-speedup table (baseline column = 1.00). */
void
printSpeedupTable(const ResultMatrix &matrix, const std::string &base_label,
                  const std::vector<std::string> &labels)
{
    std::vector<std::string> headers = {"app"};
    for (const auto &label : labels)
        headers.push_back(label);
    TextTable table(headers);

    for (const auto &[app, runs] : matrix) {
        std::vector<std::string> row = {app};
        const auto base = runs.find(base_label);
        for (const auto &label : labels) {
            const auto it = runs.find(label);
            if (it == runs.end() || base == runs.end()) {
                row.push_back("-");
                continue;
            }
            row.push_back(TextTable::fmt(
                harness::speedupOver(base->second, it->second)));
        }
        table.addRow(row);
    }

    std::vector<std::string> mean_row = {"MEAN"};
    for (const auto &label : labels) {
        const auto speedups =
            harness::speedupsVs(matrix, base_label, label);
        double sum = 0.0;
        for (const auto &[app, s] : speedups)
            sum += s;
        mean_row.push_back(TextTable::fmt(
            speedups.empty() ? 0.0
                             : sum / static_cast<double>(speedups.size())));
    }
    table.addRow(mean_row);

    table.print(std::cout);
    std::cout << "(speedup, higher is better; normalized to " << base_label
              << ")\n";
}

/** One "  <name>: <mean improvement of test over base>" line. */
void
printImprovement(const ResultMatrix &matrix, const std::string &name,
                 const std::string &base, const std::string &test)
{
    std::cout << "  " << name << ": "
              << TextTable::pct(
                     harness::meanImprovementPct(matrix, base, test))
              << "\n";
}

/**
 * GRIT's mean fault reduction against each uniform scheme, one
 * "  vs <scheme>: X% fewer faults" line each. An app missing either
 * cell (quarantined) counts as no reduction.
 */
void
printFaultReduction(const ResultMatrix &matrix)
{
    for (const std::string &base : kUniformLabels) {
        double sum = 0.0;
        for (const auto &[app, runs] : matrix) {
            const auto b = runs.find(base);
            const auto g = runs.find("grit");
            if (b == runs.end() || g == runs.end())
                continue;
            const double base_faults =
                static_cast<double>(b->second.totalFaults());
            const double grit_faults =
                static_cast<double>(g->second.totalFaults());
            if (base_faults > 0)
                sum += 1.0 - grit_faults / base_faults;
        }
        std::cout << "  vs " << base << ": "
                  << TextTable::fmt(
                         100.0 * sum / static_cast<double>(matrix.size()),
                         1)
                  << "% fewer faults\n";
    }
}

/** Counter value from a run's snapshot; 0 when absent. */
std::uint64_t
counterOf(const harness::RunResult &run, const std::string &name)
{
    for (const auto &[key, value] : run.counters)
        if (key == name)
            return value;
    return 0;
}

// ------------------------------------------------- characterizations

/**
 * Figure 4: percentage of private vs shared pages per application, and
 * the percentage of accesses going to each class.
 */
namespace fig04 {

std::vector<NamedTable>
tables(const WorkloadParams &params)
{
    std::cout << "Figure 4: private/shared pages and accesses\n\n";
    TextTable table({"app", "private pages %", "shared pages %",
                     "accesses to private %", "accesses to shared %"});
    for (workload::AppId app : workload::kAllApps) {
        const auto w = workload::makeWorkload(app, params);
        const auto c = workload::classifyPages(w);
        const double pages = static_cast<double>(c.totalPages());
        const double accesses = static_cast<double>(c.totalAccesses());
        table.addRow(
            {w.name, TextTable::fmt(100.0 * c.privatePages / pages, 1),
             TextTable::fmt(100.0 * c.sharedPages / pages, 1),
             TextTable::fmt(100.0 * c.accessesToPrivate / accesses, 1),
             TextTable::fmt(100.0 * c.accessesToShared / accesses, 1)});
    }
    table.print(std::cout);
    return {harness::namedTable("page_sharing", table)};
}

}  // namespace fig04

/**
 * Figure 5: shared-page access distribution over time. For C2D the
 * tracked page shows producer-consumer sharing (one GPU dominates per
 * interval, then another takes over); for ST it shows all-shared
 * behaviour with pattern changes across intervals.
 */
namespace fig05 {

NamedTable
report(const workload::Workload &w, unsigned intervals)
{
    const sim::PageId page = workload::mostAccessedSharedRwPage(w);
    const auto dist = workload::pageGpuDistribution(w, page, intervals);

    std::cout << w.name << ": per-interval access share of page " << page
              << " by GPU\n";
    std::vector<std::string> headers = {"interval"};
    for (unsigned g = 0; g < w.numGpus(); ++g)
        headers.push_back("GPU" + std::to_string(g));
    TextTable table(headers);
    for (unsigned k = 0; k < intervals; ++k) {
        std::uint64_t total = 0;
        for (unsigned g = 0; g < w.numGpus(); ++g)
            total += dist[k][g];
        std::vector<std::string> row = {std::to_string(k)};
        for (unsigned g = 0; g < w.numGpus(); ++g) {
            row.push_back(
                total == 0
                    ? "-"
                    : TextTable::fmt(100.0 *
                                         static_cast<double>(dist[k][g]) /
                                         static_cast<double>(total),
                                     0));
        }
        table.addRow(row);
    }
    table.print(std::cout);
    std::cout << "\n";
    return harness::namedTable(
        w.name + " gpu share of page " + std::to_string(page), table);
}

std::vector<NamedTable>
tables(const WorkloadParams &params)
{
    constexpr unsigned kIntervals = 16;
    std::cout << "Figure 5: shared page access pattern over time "
                 "(percent of the interval's accesses per GPU)\n\n";
    return {
        report(workload::makeWorkload(workload::AppId::kC2d, params),
               kIntervals),
        report(workload::makeWorkload(workload::AppId::kSt, params),
               kIntervals),
    };
}

}  // namespace fig05

/**
 * Figures 6-8: page attributes (private/shared, read/read-write) over
 * time across consecutive pages, for GEMM (regular: consecutive regions
 * hold stable attributes) and ST (irregular: attributes change over
 * time but neighboring pages change together). Rendered as a coarse
 * character map plus the neighbor-similarity metric that motivates
 * Neighboring-Aware Prediction (Section IV-C).
 */
namespace fig06_08 {

char
glyph(workload::PageAttr attr)
{
    using workload::PageAttr;
    switch (attr) {
      case PageAttr::kUntouched:        return '.';
      case PageAttr::kPrivateRead:      return 'p';
      case PageAttr::kPrivateReadWrite: return 'P';
      case PageAttr::kSharedRead:       return 's';
      case PageAttr::kSharedReadWrite:  return 'S';
    }
    return '?';
}

NamedTable
report(const workload::Workload &w)
{
    constexpr unsigned kIntervals = 20;
    constexpr unsigned kColumns = 64;

    TextTable out({"interval", "attribute_map"});

    const auto map = workload::attributesOverTime(w, kIntervals);
    std::cout << w.name << ": attribute map (rows = time intervals, "
              << "columns = " << kColumns << " page bins; "
              << "p/P private read/rw, s/S shared read/rw)\n";
    const std::size_t pages = map.front().size();
    for (unsigned k = 0; k < kIntervals; ++k) {
        std::string row;
        for (unsigned c = 0; c < kColumns; ++c) {
            // Majority attribute within the page bin.
            const std::size_t lo = c * pages / kColumns;
            const std::size_t hi = (c + 1) * pages / kColumns;
            unsigned counts[5] = {0, 0, 0, 0, 0};
            for (std::size_t p = lo; p < hi && p < pages; ++p)
                counts[static_cast<unsigned>(map[k][p])] += 1;
            unsigned best = 0;
            for (unsigned a = 1; a < 5; ++a)
                if (counts[a] > counts[best])
                    best = a;
            row.push_back(glyph(static_cast<workload::PageAttr>(best)));
        }
        std::cout << "  " << row << "\n";
        out.addRow({std::to_string(k), row});
    }
    const double similarity = 100.0 * workload::neighborSimilarity(map);
    std::cout << "  neighbor-attribute similarity: "
              << TextTable::fmt(similarity, 1)
              << "% of adjacent touched page pairs agree\n\n";
    out.addRow({"neighbor_similarity_pct", TextTable::fmt(similarity, 1)});
    return harness::namedTable(w.name + " attribute map", out);
}

std::vector<NamedTable>
tables(const WorkloadParams &params)
{
    std::cout << "Figures 6-8: page attributes over time for "
                 "consecutive pages\n\n";
    return {
        report(workload::makeWorkload(workload::AppId::kGemm, params)),
        report(workload::makeWorkload(workload::AppId::kSt, params)),
    };
}

}  // namespace fig06_08

/**
 * Figure 9: percentage of GPU memory accesses going to read pages
 * (never written) vs read-write pages, per application.
 */
namespace fig09 {

std::vector<NamedTable>
tables(const WorkloadParams &params)
{
    std::cout << "Figure 9: accesses to read vs read-write pages\n\n";
    TextTable table({"app", "read pages %", "read-write pages %",
                     "accesses to read %", "accesses to read-write %"});
    for (workload::AppId app : workload::kAllApps) {
        const auto w = workload::makeWorkload(app, params);
        const auto c = workload::classifyPages(w);
        const double pages = static_cast<double>(c.totalPages());
        const double accesses = static_cast<double>(c.totalAccesses());
        table.addRow(
            {w.name, TextTable::fmt(100.0 * c.readPages / pages, 1),
             TextTable::fmt(100.0 * c.readWritePages / pages, 1),
             TextTable::fmt(100.0 * c.accessesToRead / accesses, 1),
             TextTable::fmt(100.0 * c.accessesToReadWrite / accesses,
                            1)});
    }
    table.print(std::cout);
    return {harness::namedTable("read_write_mix", table)};
}

}  // namespace fig09

/**
 * Figure 10: read/write mix over time for one read-write shared page of
 * ST — early intervals are read-only, later intervals mix reads and
 * writes, motivating time-varying scheme selection.
 */
namespace fig10 {

std::vector<NamedTable>
tables(const WorkloadParams &params)
{
    constexpr unsigned kIntervals = 32;

    const auto w = workload::makeWorkload(workload::AppId::kSt, params);
    const sim::PageId page = workload::mostAccessedSharedRwPage(w);
    const auto dist = workload::pageRwDistribution(w, page, kIntervals);

    std::cout << "Figure 10: read/write accesses over time for ST page "
              << page << "\n\n";
    TextTable table({"interval", "reads", "writes", "write %"});
    for (unsigned k = 0; k < kIntervals; ++k) {
        const auto [reads, writes] = dist[k];
        const std::uint64_t total = reads + writes;
        table.addRow({std::to_string(k), std::to_string(reads),
                      std::to_string(writes),
                      total == 0 ? "-"
                                 : TextTable::fmt(
                                       100.0 * writes / total, 1)});
    }
    table.print(std::cout);
    return {harness::namedTable("rw_over_time", table)};
}

}  // namespace fig10

/**
 * Table II: the application inventory — suite, access pattern, paper
 * footprint, and the scaled footprint/trace statistics this repository
 * generates for each.
 */
namespace table02 {

std::vector<NamedTable>
tables(const WorkloadParams &params)
{
    std::cout << "Table II: applications\n\n";
    TextTable table({"abbr", "application", "suite", "pattern",
                     "paper MB", "scaled pages", "accesses", "writes %"});
    for (workload::AppId app : workload::kAllApps) {
        const auto w = workload::makeWorkload(app, params);
        const double writes =
            w.totalAccesses() > 0
                ? 100.0 * static_cast<double>(w.totalWrites()) /
                      static_cast<double>(w.totalAccesses())
                : 0.0;
        table.addRow({w.name, w.fullName, w.suite, w.pattern,
                      std::to_string(w.paperFootprintMB),
                      std::to_string(w.footprintGenPages),
                      std::to_string(w.totalAccesses()),
                      TextTable::fmt(writes, 1)});
    }
    table.print(std::cout);
    return {harness::namedTable("workloads", table)};
}

}  // namespace table02

// ------------------------------------------------------------ sweeps

/**
 * Figure 1 (motivation): performance of uniformly adopting each page
 * placement scheme — on-touch, access counter-based, duplication — and
 * the impractical Ideal, normalized to on-touch, per application.
 */
namespace fig01 {

RunPlan
plan(const SweepFlags &flags, WorkloadParams &params)
{
    auto configs = uniformConfigs(flags);
    configs.push_back({"ideal", flags.config(PolicyKind::kIdeal)});
    return appSweep(configs, params);
}

void
report(const ResultMatrix &matrix, const SweepFlags &)
{
    std::cout << "Figure 1: performance of each scheme relative to "
                 "baseline on-touch migration\n\n";
    printSpeedupTable(matrix, "on-touch",
                      {"on-touch", "access-counter", "duplication",
                       "ideal"});
}

}  // namespace fig01

/**
 * Figure 3: page-handling latency breakdown of each page placement
 * scheme (Local / Host / Page-migration / Remote-access /
 * Page-duplication / Write-collapse), normalized per app to the
 * on-touch total. Also prints the raw mechanism counters, which makes
 * this figure the main diagnostic for the cost model.
 */
namespace fig03 {

RunPlan
plan(const SweepFlags &flags, WorkloadParams &params)
{
    return appSweep(uniformConfigs(flags), params);
}

void
report(const ResultMatrix &matrix, const SweepFlags &)
{
    using stats::LatencyKind;

    std::cout << "Figure 3: page-handling latency breakdown "
                 "(fraction of the app's on-touch total)\n\n";

    TextTable table({"app", "scheme", "Local", "Host", "Page-migration",
                     "Remote-access", "Page-duplication", "Write-collapse",
                     "total"});
    const char *short_names[] = {"OT", "AC", "D"};

    for (const auto &[app, runs] : matrix) {
        const double ot_total = static_cast<double>(
            runs.at("on-touch").breakdown.total());
        for (std::size_t i = 0; i < kUniformLabels.size(); ++i) {
            const auto &bd = runs.at(kUniformLabels[i]).breakdown;
            std::vector<std::string> row = {app, short_names[i]};
            for (unsigned k = 0; k < stats::kLatencyKinds; ++k) {
                const double f =
                    ot_total > 0
                        ? static_cast<double>(
                              bd.get(static_cast<LatencyKind>(k))) /
                              ot_total
                        : 0.0;
                row.push_back(TextTable::fmt(f));
            }
            row.push_back(TextTable::fmt(
                ot_total > 0 ? static_cast<double>(bd.total()) / ot_total
                             : 0.0));
            table.addRow(row);
        }
    }
    table.print(std::cout);

    std::cout << "\nMechanism counters per app/scheme:\n\n";
    TextTable diag({"app", "scheme", "cycles", "faults", "migrations",
                    "duplications", "collapses", "remote-accesses",
                    "evictions", "spills"});
    for (const auto &[app, runs] : matrix) {
        for (std::size_t i = 0; i < kUniformLabels.size(); ++i) {
            const auto &r = runs.at(kUniformLabels[i]);
            diag.addRow(
                {app, short_names[i], std::to_string(r.cycles),
                 std::to_string(r.totalFaults()),
                 std::to_string(counterOf(r, "uvm.migrations") +
                                counterOf(r, "uvm.host_migrations")),
                 std::to_string(counterOf(r, "uvm.duplications")),
                 std::to_string(counterOf(r, "uvm.collapses")),
                 std::to_string(counterOf(r, "sim.remote_accesses")),
                 std::to_string(r.evictions),
                 std::to_string(counterOf(r, "uvm.spills"))});
        }
    }
    diag.print(std::cout);
}

}  // namespace fig03

/**
 * Figure 17 (headline result): GRIT vs the three uniform page placement
 * schemes, normalized to on-touch migration.
 */
namespace fig17 {

RunPlan
plan(const SweepFlags &flags, WorkloadParams &params)
{
    return appSweep(mainConfigs(flags), params);
}

void
report(const ResultMatrix &matrix, const SweepFlags &)
{
    std::cout << "Figure 17: GRIT vs uniform schemes (speedup over "
                 "on-touch)\n\n";
    printSpeedupTable(matrix, "on-touch", kMainLabels);
    std::cout << "\nAverage improvement of GRIT (paper: +60 % / +49 % / "
                 "+29 %):\n";
    for (const std::string &base : kUniformLabels)
        printImprovement(matrix, "vs " + base, base, "grit");
}

}  // namespace fig17

/**
 * Figure 18: total GPU page faults (local + page-protection) per scheme
 * and for GRIT, normalized to on-touch migration.
 */
namespace fig18 {

RunPlan
plan(const SweepFlags &flags, WorkloadParams &params)
{
    return appSweep(mainConfigs(flags), params);
}

void
report(const ResultMatrix &matrix, const SweepFlags &)
{
    std::cout << "Figure 18: GPU page faults normalized to on-touch\n\n";
    std::vector<std::string> headers = {"app"};
    for (const auto &l : kMainLabels)
        headers.push_back(l);
    TextTable table(headers);

    std::map<std::string, double> sums;
    for (const auto &[app, runs] : matrix) {
        const double base =
            static_cast<double>(runs.at("on-touch").totalFaults());
        std::vector<std::string> row = {app};
        for (const auto &l : kMainLabels) {
            const double f = static_cast<double>(runs.at(l).totalFaults());
            const double norm = base > 0 ? f / base : 0.0;
            sums[l] += norm;
            row.push_back(TextTable::fmt(norm));
        }
        table.addRow(row);
    }
    std::vector<std::string> mean = {"MEAN"};
    for (const auto &l : kMainLabels)
        mean.push_back(
            TextTable::fmt(sums[l] / static_cast<double>(matrix.size())));
    table.addRow(mean);
    table.print(std::cout);

    std::cout << "\nGRIT fault reduction (paper: -39 % / -55 % / -16 %):\n";
    printFaultReduction(matrix);
}

}  // namespace fig18

/**
 * Figure 19: percentage of L2-TLB-missing accesses governed by each
 * page placement scheme when GRIT runs — the per-app scheme mix GRIT
 * converges to (duplication-heavy for BFS/GEMM/MM, on-touch for
 * C2D/FIR/SC, access counter for BS, mixed for ST).
 */
namespace fig19 {

RunPlan
plan(const SweepFlags &flags, WorkloadParams &params)
{
    return appSweep({{"grit", flags.config(PolicyKind::kGrit)}}, params);
}

void
report(const ResultMatrix &matrix, const SweepFlags &)
{
    std::cout << "Figure 19: scheme mix of L2-TLB-missing accesses "
                 "under GRIT\n\n";
    TextTable table(
        {"app", "on-touch %", "access-counter %", "duplication %"});
    for (workload::AppId app : workload::kAllApps) {
        // Quarantined apps show up as "-" rows.
        const std::string abbr = workload::appMeta(app).abbr;
        const auto rowIt = matrix.find(abbr);
        if (rowIt == matrix.end() ||
            rowIt->second.find("grit") == rowIt->second.end()) {
            table.addRow({abbr, "-", "-", "-"});
            continue;
        }
        const auto &result = rowIt->second.at("grit");
        auto accesses = [&](mem::Scheme scheme) {
            return static_cast<double>(
                result.schemeAccesses[static_cast<unsigned>(scheme)]);
        };
        // kNone accesses ran under the start scheme (on-touch) before
        // any decision.
        const double ot = accesses(mem::Scheme::kOnTouch) +
                          accesses(mem::Scheme::kNone);
        const double ac = accesses(mem::Scheme::kAccessCounter);
        const double dup = accesses(mem::Scheme::kDuplication);
        const double total = ot + ac + dup;
        auto share = [&](double v) {
            return total > 0 ? TextTable::fmt(100.0 * v / total, 1) : "-";
        };
        table.addRow({abbr, share(ot), share(ac), share(dup)});
    }
    table.print(std::cout);
}

}  // namespace fig19

/**
 * Figure 20: performance of GRIT's individual components — PA-Table
 * only, PA-Table + PA-Cache, PA-Table + Neighboring-Aware Prediction,
 * and full GRIT — normalized to on-touch migration.
 */
namespace fig20 {

const std::vector<std::string> kVariants = {
    "pa-table", "pa-table+pa-cache", "pa-table+nap", "full-grit"};

RunPlan
plan(const SweepFlags &flags, WorkloadParams &params)
{
    return appSweep(
        {
            {"on-touch", flags.config(PolicyKind::kOnTouch)},
            {"pa-table", gritVariant(flags, false, false)},
            {"pa-table+pa-cache", gritVariant(flags, true, false)},
            {"pa-table+nap", gritVariant(flags, false, true)},
            {"full-grit", gritVariant(flags, true, true)},
        },
        params);
}

void
report(const ResultMatrix &matrix, const SweepFlags &)
{
    std::cout << "Figure 20: GRIT component ablation (speedup over "
                 "on-touch)\n\n";
    printSpeedupTable(matrix, "on-touch", kVariants);
    std::cout << "\nAverage improvement over on-touch "
                 "(paper: +31 % / +47 % / +44 % / +60 %):\n";
    for (const std::string &label : kVariants)
        printImprovement(matrix, label, "on-touch", label);
}

}  // namespace fig20

/**
 * Figure 21: GRIT's fault-threshold sensitivity — thresholds 2, 4, 8,
 * and 16, normalized to on-touch migration.
 */
namespace fig21 {

const std::vector<std::string> kThresholds = {"grit-t2", "grit-t4",
                                              "grit-t8", "grit-t16"};

RunPlan
plan(const SweepFlags &flags, WorkloadParams &params)
{
    std::vector<LabeledConfig> configs = {
        {"on-touch", flags.config(PolicyKind::kOnTouch)}};
    for (std::uint32_t threshold : {2u, 4u, 8u, 16u}) {
        harness::SystemConfig config = flags.config(PolicyKind::kGrit);
        config.grit.faultThreshold = threshold;
        configs.push_back({"grit-t" + std::to_string(threshold), config});
    }
    return appSweep(configs, params);
}

void
report(const ResultMatrix &matrix, const SweepFlags &)
{
    std::cout << "Figure 21: GRIT fault-threshold sensitivity (speedup "
                 "over on-touch)\n\n";
    printSpeedupTable(matrix, "on-touch", kThresholds);
    std::cout << "\nAverage improvement (paper: +53 % / +60 % / +59 % / "
                 "+48 %, saturating at threshold 4):\n";
    for (const std::string &label : kThresholds)
        printImprovement(matrix, label, "on-touch", label);
}

}  // namespace fig21

/**
 * Figures 22-24: GRIT with 2, 8, and 16 GPUs, each normalized to the
 * same-GPU-count baselines (input size held constant, as in the paper).
 * One plan holds all three GPU counts, labelled "<label>@<n>gpu".
 */
namespace fig22_24 {

constexpr unsigned kGpuCounts[] = {2, 8, 16};

std::string
suffix(unsigned gpus)
{
    return "@" + std::to_string(gpus) + "gpu";
}

RunPlan
plan(const SweepFlags &flags, WorkloadParams &params)
{
    std::vector<LabeledConfig> configs;
    for (unsigned gpus : kGpuCounts) {
        for (LabeledConfig &labeled : mainConfigs(flags, gpus)) {
            labeled.label += suffix(gpus);
            configs.push_back(std::move(labeled));
        }
    }
    return appSweep(configs, params);
}

/** The cells run on @p gpus GPUs, under their unsuffixed labels. */
ResultMatrix
atGpuCount(const ResultMatrix &matrix, unsigned gpus)
{
    const std::string tail = suffix(gpus);
    ResultMatrix out;
    for (const auto &[row, runs] : matrix)
        for (const auto &[label, result] : runs)
            if (label.ends_with(tail))
                out[row][label.substr(0, label.size() - tail.size())] =
                    result;
    return out;
}

void
report(const ResultMatrix &combined, const SweepFlags &)
{
    for (unsigned gpus : kGpuCounts) {
        const ResultMatrix matrix = atGpuCount(combined, gpus);
        std::cout << "=== " << gpus << " GPUs (speedup over " << gpus
                  << "-GPU on-touch) ===\n\n";
        printSpeedupTable(matrix, "on-touch", kMainLabels);
        std::cout << "\nGRIT average improvement:\n";
        for (const std::string &base : kUniformLabels)
            printImprovement(matrix, "vs " + base, base, "grit");
        std::cout << "\nGRIT fault reduction:\n";
        printFaultReduction(matrix);
        std::cout << "\n";
    }
}

}  // namespace fig22_24

/**
 * Figure 26: comparison with Griffin (HPCA 2020). Four configurations
 * normalized to Griffin-DPC: Griffin-DPC, GRIT, Griffin (DPC + ACUD),
 * and GRIT + ACUD.
 */
namespace fig26 {

RunPlan
plan(const SweepFlags &flags, WorkloadParams &params)
{
    const harness::SystemConfig dpc = flags.config(PolicyKind::kGriffinDpc);
    const harness::SystemConfig grit_cfg = flags.config(PolicyKind::kGrit);
    harness::SystemConfig griffin = dpc;
    griffin.uvm.acud = true;
    harness::SystemConfig grit_acud = grit_cfg;
    grit_acud.uvm.acud = true;
    return appSweep({{"griffin-dpc", dpc},
                     {"grit", grit_cfg},
                     {"griffin", griffin},
                     {"grit+acud", grit_acud}},
                    params);
}

void
report(const ResultMatrix &matrix, const SweepFlags &)
{
    std::cout << "Figure 26: Griffin comparison (speedup over "
                 "Griffin-DPC)\n\n";
    printSpeedupTable(matrix, "griffin-dpc",
                      {"griffin-dpc", "grit", "griffin", "grit+acud"});
    std::cout << "\nAverages (paper: GRIT +27 % over Griffin-DPC; "
                 "GRIT+ACUD +16 % over Griffin; ACUD on GRIT +9 %):\n";
    printImprovement(matrix, "grit vs griffin-dpc", "griffin-dpc", "grit");
    printImprovement(matrix, "grit+acud vs griffin", "griffin",
                     "grit+acud");
    printImprovement(matrix, "grit+acud vs grit", "grit", "grit+acud");
}

}  // namespace fig26

/**
 * Figure 27: comparison with GPS (MICRO 2021), normalized to GPS,
 * with GPS's replica footprint: its publish-subscribe replication
 * oversubscribes memory.
 */
namespace fig27 {

RunPlan
plan(const SweepFlags &flags, WorkloadParams &params)
{
    return appSweep({{"gps", flags.config(PolicyKind::kGps)},
                     {"grit", flags.config(PolicyKind::kGrit)}},
                    params);
}

void
report(const ResultMatrix &matrix, const SweepFlags &)
{
    std::cout << "Figure 27: GPS comparison (speedup over GPS)\n\n";
    printSpeedupTable(matrix, "gps", {"gps", "grit"});
    std::cout << "\nGRIT vs GPS (paper: +15 %): "
              << TextTable::pct(
                     harness::meanImprovementPct(matrix, "gps", "grit"))
              << "\n\nOversubscription (evictions per 1000 accesses; "
                 "paper: GPS 34 % higher):\n";
    TextTable table({"app", "gps", "grit", "gps peak replicas",
                     "grit peak replicas"});
    double gps_sum = 0.0;
    double grit_sum = 0.0;
    for (const auto &[app, runs] : matrix) {
        const auto &gps = runs.at("gps");
        const auto &grit_run = runs.at("grit");
        gps_sum += gps.oversubscriptionRate();
        grit_sum += grit_run.oversubscriptionRate();
        table.addRow({app, TextTable::fmt(gps.oversubscriptionRate()),
                      TextTable::fmt(grit_run.oversubscriptionRate()),
                      std::to_string(gps.peakReplicas),
                      std::to_string(grit_run.peakReplicas)});
    }
    table.print(std::cout);
    if (grit_sum > 0) {
        std::cout << "GPS oversubscription rate vs GRIT: "
                  << TextTable::pct(100.0 * (gps_sum / grit_sum - 1.0))
                  << "\n";
    }
}

}  // namespace fig27

/**
 * Figure 28: comparison with the combination of Griffin-DPC and
 * Trans-FW (HPCA 2023), normalized to the combination: Trans-FW
 * accelerates fault handling, GRIT avoids more of the faults outright.
 */
namespace fig28 {

RunPlan
plan(const SweepFlags &flags, WorkloadParams &params)
{
    harness::SystemConfig combo = flags.config(PolicyKind::kGriffinDpc);
    combo.uvm.transFw = true;
    return appSweep(
        {{"dpc+transfw", combo}, {"grit", flags.config(PolicyKind::kGrit)}},
        params);
}

void
report(const ResultMatrix &matrix, const SweepFlags &)
{
    std::cout << "Figure 28: Griffin-DPC + Trans-FW comparison (speedup "
                 "over the combination)\n\n";
    printSpeedupTable(matrix, "dpc+transfw", {"dpc+transfw", "grit"});
    std::cout << "\nGRIT vs Griffin-DPC+Trans-FW (paper: +18 %): "
              << TextTable::pct(harness::meanImprovementPct(
                     matrix, "dpc+transfw", "grit"))
              << "\n";
}

}  // namespace fig28

/**
 * Figure 29: comparison with first-touch migration (pin on first touch,
 * peer access afterwards), normalized to first-touch: marginal on
 * private-heavy apps (FIR, SC), large on shared-heavy apps (GEMM, MM).
 */
namespace fig29 {

RunPlan
plan(const SweepFlags &flags, WorkloadParams &params)
{
    return appSweep(
        {{"first-touch", flags.config(PolicyKind::kFirstTouch)},
         {"grit", flags.config(PolicyKind::kGrit)}},
        params);
}

void
report(const ResultMatrix &matrix, const SweepFlags &)
{
    std::cout << "Figure 29: first-touch comparison (speedup over "
                 "first-touch)\n\n";
    printSpeedupTable(matrix, "first-touch", {"first-touch", "grit"});
    std::cout << "\nGRIT vs first-touch (paper: +54 %): "
              << TextTable::pct(harness::meanImprovementPct(
                     matrix, "first-touch", "grit"))
              << "\n";
}

}  // namespace fig29

/**
 * Figure 30: GRIT combined with the tree-based neighborhood prefetcher
 * (Ganguly et al., ISCA 2019), vs on-touch with the same prefetcher:
 * GRIT's placement decisions compose with prefetching.
 */
namespace fig30 {

RunPlan
plan(const SweepFlags &flags, WorkloadParams &params)
{
    harness::SystemConfig ot_pf = flags.config(PolicyKind::kOnTouch);
    ot_pf.prefetch = true;
    harness::SystemConfig grit_pf = flags.config(PolicyKind::kGrit);
    grit_pf.prefetch = true;
    return appSweep(
        {{"on-touch+prefetch", ot_pf}, {"grit+prefetch", grit_pf}}, params);
}

void
report(const ResultMatrix &matrix, const SweepFlags &)
{
    std::cout << "Figure 30: GRIT combined with tree-based neighborhood "
                 "prefetching (speedup over on-touch+prefetch)\n\n";
    printSpeedupTable(matrix, "on-touch+prefetch",
                      {"on-touch+prefetch", "grit+prefetch"});
    std::cout << "\nGRIT+prefetch vs on-touch+prefetch (paper: +23 %): "
              << TextTable::pct(harness::meanImprovementPct(
                     matrix, "on-touch+prefetch", "grit+prefetch"))
              << "\n";
}

}  // namespace fig30

/**
 * Figure 31: DNN workloads — VGG16 and ResNet18 model-parallel training
 * under GRIT, normalized to their on-touch baselines.
 */
namespace fig31 {

constexpr workload::DnnModel kModels[] = {workload::DnnModel::kVgg16,
                                          workload::DnnModel::kResNet18};

RunPlan
plan(const SweepFlags &flags, WorkloadParams &params)
{
    // DNN traces are prebuilt (no AppId), so plan them as shared
    // workload handles: one generation, two configurations each.
    RunPlan plan;
    for (workload::DnnModel model : kModels) {
        WorkloadParams p = params;
        p.numGpus = 4;
        const auto w = std::make_shared<const workload::Workload>(
            workload::makeDnnWorkload(model, p));
        const std::string row = workload::dnnModelName(model);
        plan.addWorkload(row, "on-touch",
                         flags.config(PolicyKind::kOnTouch), w);
        plan.addWorkload(row, "grit", flags.config(PolicyKind::kGrit), w);
    }
    return plan;
}

void
report(const ResultMatrix &matrix, const SweepFlags &)
{
    std::cout << "Figure 31: DNN model parallelism (speedup over "
                 "on-touch; paper: VGG16 +15 %, ResNet18 +18 %)\n\n";
    TextTable table({"model", "on-touch", "grit", "improvement"});
    for (workload::DnnModel model : kModels) {
        // Quarantined models show up as "-" rows.
        const std::string row = workload::dnnModelName(model);
        const auto rowIt = matrix.find(row);
        if (rowIt == matrix.end() ||
            rowIt->second.find("on-touch") == rowIt->second.end() ||
            rowIt->second.find("grit") == rowIt->second.end()) {
            table.addRow({row, "-", "-", "-"});
            continue;
        }
        const auto &runs = rowIt->second;
        const double speedup =
            harness::speedupOver(runs.at("on-touch"), runs.at("grit"));
        table.addRow({row, "1.00", TextTable::fmt(speedup),
                      TextTable::pct(100.0 * (speedup - 1.0))});
    }
    table.print(std::cout);
}

}  // namespace fig31

/**
 * Page-size sweep: the placement schemes under three translation
 * geometries (docs/PAGESIZE.md) —
 *
 *   4k    - the paper's default 4 KB granule;
 *   large - a fixed large granule (32 KB by default, `--page-size`
 *           overrides): the Fig. 25 scaled model of the paper's 2 MB
 *           study, over enlarged inputs. Merged pages mix read and
 *           read-write 4 KB regions (false sharing), so GRIT keeps a
 *           smaller edge than at 4 KB;
 *   dyn   - the dynamic mode: 4 KB base pages with Mosaic-style
 *           promotion of hot fully-resident regions to huge mappings
 *           (32 KB regions by default, `--huge-pages` overrides) and
 *           write-sharing-triggered splintering, so per-4 KB
 *           duplication/collapse keeps working underneath.
 *
 * The figure owns the geometry axis: it overwrites what the factory
 * applied. Every config exports the translation accounting (`tlb.*`,
 * `pwc.*`) plus the `promote.*`/`splinter.*` ledger, and the report
 * prints the page-walk reduction dynamic promotion buys over fixed 4 KB
 * next to the speedup table.
 */
namespace pagesize {

/** Schemes compared under every geometry. */
constexpr PolicyKind kSchemes[] = {
    PolicyKind::kOnTouch,
    PolicyKind::kAccessCounter,
    PolicyKind::kDuplication,
    PolicyKind::kGrit,
};

/** The three geometry modes of the sweep. */
enum class Mode { k4k, kLarge, kDynamic };

constexpr Mode kModes[] = {Mode::k4k, Mode::kLarge, Mode::kDynamic};

const char *
modeName(Mode mode)
{
    switch (mode) {
    case Mode::k4k:
        return "4k";
    case Mode::kLarge:
        return "large";
    case Mode::kDynamic:
        return "dyn";
    }
    return "?";
}

std::uint64_t
largePageBytes(const SweepFlags &flags)
{
    return flags.pageSizeBytes != 0 ? flags.pageSizeBytes : 32 * 1024;
}

std::uint64_t
hugeRegionBytes(const SweepFlags &flags)
{
    return flags.hugePagesBytes != 0 ? flags.hugePagesBytes : 32 * 1024;
}

/** @p config with the geometry of @p mode. */
harness::SystemConfig
withGeometry(harness::SystemConfig config, Mode mode,
             const SweepFlags &flags)
{
    config.geometry = mem::PageGeometry{};
    switch (mode) {
    case Mode::k4k:
        break;
    case Mode::kLarge:
        config.geometry.baseSize = largePageBytes(flags);
        break;
    case Mode::kDynamic:
        config.geometry.hugePages = true;
        config.geometry.hugeSize = hugeRegionBytes(flags);
        break;
    }
    config.pageSizeStats = true;
    return config;
}

RunPlan
plan(const SweepFlags &flags, WorkloadParams &params)
{
    // "Enlarge the input size" (Section VI-B3): halve the divisor so
    // the large/dynamic modes see the paper's page:footprint ratio.
    params.footprintDivisor = std::max(1u, params.footprintDivisor / 2);

    std::vector<LabeledConfig> configs;
    for (Mode mode : kModes)
        for (PolicyKind scheme : kSchemes)
            configs.push_back(
                {std::string(harness::policyKindName(scheme)) + "-" +
                     modeName(mode),
                 withGeometry(flags.config(scheme), mode, flags)});

    // The fully-resident pair: capacity limit off, so promoted regions
    // are never squeezed out by pinning — the clean-room measurement of
    // what a huge mapping buys the translation path (one TLB entry and
    // one walk per region instead of per 4 KB page).
    for (Mode mode : {Mode::k4k, Mode::kDynamic}) {
        harness::SystemConfig config =
            withGeometry(flags.config(PolicyKind::kOnTouch), mode, flags);
        config.memoryFraction = 0.0;  // fully resident
        configs.push_back(
            {std::string("resident-") + modeName(mode), config});
    }
    return appSweep(configs, params);
}

void
report(const ResultMatrix &matrix, const SweepFlags &flags)
{
    std::cout << "Page-size sweep: schemes x translation geometries "
                 "(large = " << largePageBytes(flags) / 1024
              << " KB fixed, dyn = 4 KB + " << hugeRegionBytes(flags) / 1024
              << " KB promoted regions)\n";
    for (Mode mode : kModes) {
        std::vector<std::string> labels;
        for (PolicyKind scheme : kSchemes)
            labels.push_back(std::string(harness::policyKindName(scheme)) +
                             "-" + modeName(mode));
        std::cout << "\n== " << modeName(mode) << " ==\n";
        printSpeedupTable(matrix, labels.front(), labels);
    }

    std::cout << "\nGRIT mean improvement over on-touch, per geometry "
                 "(paper: +60 % at 4 KB vs +23 % at 2 MB):\n";
    for (Mode mode : kModes) {
        const std::string suffix = std::string("-") + modeName(mode);
        printImprovement(matrix, modeName(mode), "on-touch" + suffix,
                         "grit" + suffix);
    }

    // On the fully-resident pair: how many TLB misses and page walks
    // dynamic promotion buys over fixed 4 KB when pinned regions are
    // never squeezed out by capacity.
    std::cout << "\nFully resident, dynamic promotion vs fixed 4 KB "
                 "(on-touch, capacity limit off):\n";
    for (const auto &[app, runs] : matrix) {
        const auto base = runs.find("resident-4k");
        const auto dyn = runs.find("resident-dyn");
        if (base == runs.end() || dyn == runs.end())
            continue;
        const std::uint64_t walks_4k = counterOf(base->second, "gmmu.walks");
        const std::uint64_t walks_dyn = counterOf(dyn->second, "gmmu.walks");
        const std::uint64_t l2miss_4k =
            counterOf(base->second, "tlb.l2_misses");
        const std::uint64_t l2miss_dyn =
            counterOf(dyn->second, "tlb.l2_misses");
        const double reduction =
            walks_4k == 0 ? 0.0
                          : 100.0 *
                                (static_cast<double>(walks_4k) -
                                 static_cast<double>(walks_dyn)) /
                                static_cast<double>(walks_4k);
        std::cout << "  " << app << ": walks " << walks_4k << " -> "
                  << walks_dyn << " (" << TextTable::pct(reduction)
                  << " fewer), L2 TLB misses " << l2miss_4k << " -> "
                  << l2miss_dyn << ", promoted "
                  << counterOf(dyn->second, "promote.regions")
                  << " region(s), splintered "
                  << counterOf(dyn->second, "splinter.regions") << "\n";
    }
}

}  // namespace pagesize

/**
 * Topology sensitivity sweep: the page-placement schemes (first-touch,
 * GPS, Griffin-DPC, GRIT) across every interconnect topology the fabric
 * layer models (all-to-all, ring, switch, chiplet — docs/TOPOLOGY.md).
 * The figure owns the fabric-kind axis; `--topology KIND` narrows it to
 * one topology.
 *
 * Each run exports the per-link `fabric.*` counters so the JSON
 * document shows where the bytes actually flowed — e.g. ring hop
 * amplification or switch port serialization — next to the end-to-end
 * cycle counts.
 */
namespace topology {

/** The placement schemes compared on every topology. */
constexpr PolicyKind kSchemes[] = {
    PolicyKind::kFirstTouch,
    PolicyKind::kGps,
    PolicyKind::kGriffinDpc,
    PolicyKind::kGrit,
};

std::vector<ic::TopologyKind>
kinds(const SweepFlags &flags)
{
    if (flags.topology)
        return {*flags.topology};
    return {std::begin(ic::kAllTopologyKinds),
            std::end(ic::kAllTopologyKinds)};
}

RunPlan
plan(const SweepFlags &flags, WorkloadParams &params)
{
    std::vector<LabeledConfig> configs;
    for (ic::TopologyKind kind : kinds(flags)) {
        for (PolicyKind scheme : kSchemes) {
            LabeledConfig labeled{std::string(ic::topologyKindName(kind)) +
                                      "/" + harness::policyKindName(scheme),
                                  flags.config(scheme)};
            labeled.config.topology = kind;
            labeled.config.fabricStats = true;
            configs.push_back(std::move(labeled));
        }
    }
    return appSweep(configs, params);
}

void
report(const ResultMatrix &matrix, const SweepFlags &flags)
{
    std::cout << "Topology sensitivity: placement schemes across "
                 "interconnect topologies\n";
    for (ic::TopologyKind kind : kinds(flags)) {
        const std::string topo = ic::topologyKindName(kind);
        std::vector<std::string> labels;
        for (PolicyKind scheme : kSchemes)
            labels.push_back(topo + "/" + harness::policyKindName(scheme));
        std::cout << "\n== " << topo << " ==\n";
        printSpeedupTable(matrix, labels.front(), labels);
    }

    // Cross-topology robustness: how much of GRIT's advantage over
    // first-touch survives on each fabric.
    std::cout << "\nGRIT mean improvement over first-touch, per "
                 "topology:\n";
    for (ic::TopologyKind kind : kinds(flags)) {
        const std::string topo = ic::topologyKindName(kind);
        printImprovement(matrix, topo, topo + "/first-touch",
                         topo + "/grit");
    }
}

}  // namespace topology

/**
 * Ablation (DESIGN.md §6): hardware access-counter threshold. Table I
 * fixes it at 256 (the NVIDIA Volta default); this sweep varies it for
 * the uniform access-counter scheme and for GRIT (whose AC-scheme pages
 * use the same counters). Lower thresholds migrate sooner — fewer
 * remote accesses, more migrations/invalidations; higher thresholds
 * strand pages remotely.
 */
namespace counter_threshold {

RunPlan
plan(const SweepFlags &flags, WorkloadParams &params)
{
    std::vector<LabeledConfig> configs = {
        {"on-touch", flags.config(PolicyKind::kOnTouch)}};
    for (unsigned threshold : {64u, 256u, 1024u}) {
        harness::SystemConfig ac = flags.config(PolicyKind::kAccessCounter);
        ac.gpu.counterThreshold = threshold;
        configs.push_back({"ac-" + std::to_string(threshold), ac});

        harness::SystemConfig grit_cfg = flags.config(PolicyKind::kGrit);
        grit_cfg.gpu.counterThreshold = threshold;
        configs.push_back({"grit-" + std::to_string(threshold), grit_cfg});
    }
    return appSweep(configs, params);
}

void
report(const ResultMatrix &matrix, const SweepFlags &)
{
    std::cout << "Ablation: access-counter threshold (Table I default "
                 "256; speedup over on-touch)\n\n";
    printSpeedupTable(matrix, "on-touch",
                      {"ac-64", "ac-256", "ac-1024", "grit-64", "grit-256",
                       "grit-1024"});
}

}  // namespace counter_threshold

/**
 * Ablation (DESIGN.md §6): Neighboring-Aware Prediction. The paper
 * fixes the maximum promoted group at 512 pages (one 2 MB page-table
 * page); NeighborPredictor's ceiling is a compile-time constant
 * (kMaxGroupPages), so this ablation compares NAP-off, NAP-on, and
 * NAP-on with the PA-Cache off, isolating how much of GRIT's gain each
 * combination carries per app.
 */
namespace group_size {

RunPlan
plan(const SweepFlags &flags, WorkloadParams &params)
{
    return appSweep(
        {
            {"on-touch", flags.config(PolicyKind::kOnTouch)},
            {"grit-no-nap", gritVariant(flags, true, false)},
            {"grit-nap", gritVariant(flags, true, true)},
            {"grit-nap-no-cache", gritVariant(flags, false, true)},
        },
        params);
}

void
report(const ResultMatrix &matrix, const SweepFlags &)
{
    std::cout << "Ablation: Neighboring-Aware Prediction contribution "
                 "(speedup over on-touch)\n\n";
    printSpeedupTable(matrix, "on-touch",
                      {"grit-no-nap", "grit-nap", "grit-nap-no-cache"});

    std::cout << "\nNAP contribution per app (grit-nap / grit-no-nap):\n";
    TextTable table({"app", "NAP gain"});
    for (const auto &[app, runs] : matrix) {
        const double gain = harness::speedupOver(runs.at("grit-no-nap"),
                                                 runs.at("grit-nap"));
        table.addRow({app, TextTable::pct(100.0 * (gain - 1.0))});
    }
    table.print(std::cout);
}

}  // namespace group_size

// ---------------------------------------------------------- registry

const Figure kFigures[] = {
    {.name = "fig01_motivation",
     .title = "Figure 1: uniform scheme performance vs on-touch",
     .plan = fig01::plan,
     .report = fig01::report},
    {.name = "fig03_latency_breakdown",
     .title = "Figure 3: page-handling latency breakdown",
     .plan = fig03::plan,
     .report = fig03::report},
    {.name = "fig04_page_sharing",
     .title = "Figure 4: private/shared pages and accesses",
     .tables = fig04::tables},
    {.name = "fig05_sharing_over_time",
     .title = "Figure 5: shared page access pattern over time",
     .tables = fig05::tables},
    {.name = "fig06_08_attributes_over_time",
     .title = "Figures 6-8: page attributes over time",
     .tables = fig06_08::tables},
    {.name = "fig09_read_write_mix",
     .title = "Figure 9: accesses to read vs read-write pages",
     .tables = fig09::tables},
    {.name = "fig10_rw_over_time",
     .title = "Figure 10: read/write mix over time for one ST page",
     .tables = fig10::tables},
    {.name = "fig17_overall",
     .title = "Figure 17: GRIT vs uniform schemes",
     .plan = fig17::plan,
     .report = fig17::report},
    {.name = "fig18_page_faults",
     .title = "Figure 18: GPU page faults per scheme",
     .plan = fig18::plan,
     .report = fig18::report},
    {.name = "fig19_scheme_breakdown",
     .title = "Figure 19: scheme mix of L2-TLB-missing accesses under GRIT",
     .plan = fig19::plan,
     .report = fig19::report},
    {.name = "fig20_ablation",
     .title = "Figure 20: GRIT component ablation",
     .plan = fig20::plan,
     .report = fig20::report},
    {.name = "fig21_fault_threshold",
     .title = "Figure 21: GRIT fault-threshold sensitivity",
     .plan = fig21::plan,
     .report = fig21::report},
    {.name = "fig22_24_gpu_scaling",
     .title = "Figures 22-24: GRIT GPU scaling",
     .plan = fig22_24::plan,
     .report = fig22_24::report},
    {.name = "fig26_griffin",
     .title = "Figure 26: Griffin comparison",
     .plan = fig26::plan,
     .report = fig26::report},
    {.name = "fig27_gps",
     .title = "Figure 27: GPS comparison",
     .plan = fig27::plan,
     .report = fig27::report},
    {.name = "fig28_transfw",
     .title = "Figure 28: Griffin-DPC + Trans-FW comparison",
     .plan = fig28::plan,
     .report = fig28::report},
    {.name = "fig29_first_touch",
     .title = "Figure 29: first-touch comparison",
     .plan = fig29::plan,
     .report = fig29::report},
    {.name = "fig30_prefetch",
     .title = "Figure 30: GRIT with tree-based prefetching",
     .plan = fig30::plan,
     .report = fig30::report},
    {.name = "fig31_dnn",
     .title = "Figure 31: DNN model parallelism",
     .plan = fig31::plan,
     .report = fig31::report},
    {.name = "fig_pagesize",
     .title = "Page-size sweep: schemes x translation geometries",
     .plan = pagesize::plan,
     .report = pagesize::report},
    {.name = "fig_topology",
     .title = "Topology sensitivity: schemes x interconnect topologies",
     .plan = topology::plan,
     .report = topology::report},
    {.name = "table02_workloads",
     .title = "Table II: applications",
     .tables = table02::tables},
    {.name = "ablation_group_size",
     .title = "Ablation: Neighboring-Aware Prediction contribution",
     .plan = group_size::plan,
     .report = group_size::report},
    {.name = "ablation_counter_threshold",
     .title = "Ablation: access-counter threshold",
     .plan = counter_threshold::plan,
     .report = counter_threshold::report},
};

}  // namespace

const Figure *
findFigure(std::string_view name)
{
    for (const Figure &figure : kFigures)
        if (name == figure.name)
            return &figure;
    return nullptr;
}

}  // namespace grit::bench
