/**
 * @file
 * Harness-level "grit-results" serialization: writers that turn
 * RunResults and ResultMatrix sweeps into the versioned JSON documents
 * described in docs/METRICS.md.
 *
 * These sit above stats::ResultSink (which knows the envelope and the
 * stats-layer types) and below the bench driver (which parses `--json`
 * and picks the output stream). Every field a run emits is deterministic,
 * so a document is byte-identical for any worker count.
 */

#ifndef GRIT_HARNESS_RESULTS_IO_H_
#define GRIT_HARNESS_RESULTS_IO_H_

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "harness/experiment.h"
#include "harness/experiment_engine.h"
#include "stats/result_sink.h"
#include "workload/apps.h"

namespace grit::harness {

class TextTable;

/**
 * Write @p result's fields into the run object @p sink currently has
 * open (between beginRun() and endRun()).
 */
void writeRunResult(stats::ResultSink &sink, const RunResult &result);

/**
 * Write one complete document: envelope, params, and a "runs" array
 * holding every (row, label) cell of @p matrix in map order.
 */
void writeResultMatrix(std::ostream &os, std::string_view generator,
                       std::string_view title,
                       const workload::WorkloadParams &params,
                       const ResultMatrix &matrix);

/**
 * Write one complete document for a resilient sweep: the matrix runs
 * (salvaged-partial runs carry "partial"/"error"), the quarantined-run
 * "failures" manifest when any exist, and — only when @p cache is
 * non-null (--sweep-stats) — the "sweep" section: the sweep's
 * executed/reused/skipped cells and the engine's trace-cache counters.
 * Without failures, partial runs, or stats, the document is the
 * writeResultMatrix one, which is what lets a resumed sweep merge
 * cleanly against an uninterrupted reference.
 */
void writeSweepResult(std::ostream &os, std::string_view generator,
                      std::string_view title,
                      const workload::WorkloadParams &params,
                      const SweepResult &sweep,
                      const workload::TraceCache *cache);

/** A named table for the "tables" section (characterization output). */
struct NamedTable
{
    std::string name;
    std::vector<std::string> columns;
    std::vector<std::vector<std::string>> rows;
};

/** Convert a rendered TextTable into a NamedTable. */
NamedTable namedTable(std::string name, const TextTable &table);

/**
 * Write one complete document whose payload is a "tables" array (the
 * characterization binaries report tables, not simulation runs).
 */
void writeResultTables(std::ostream &os, std::string_view generator,
                       std::string_view title,
                       const workload::WorkloadParams &params,
                       const std::vector<NamedTable> &tables);

}  // namespace grit::harness

#endif  // GRIT_HARNESS_RESULTS_IO_H_
