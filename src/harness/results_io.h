/**
 * @file
 * The "grit-results" document: the one place that knows its layout.
 * Writers that turn RunResults, ResultMatrix sweeps and report tables
 * into the versioned JSON documents described in docs/METRICS.md,
 * straight onto a stats::JsonWriter.
 *
 * These sit below the bench driver (which parses `--json` and picks the
 * output stream); scripts/check_results_schema.py validates what they
 * emit. Every field a run emits is deterministic, so a document is
 * byte-identical for any worker count, platform or locale.
 */

#ifndef GRIT_HARNESS_RESULTS_IO_H_
#define GRIT_HARNESS_RESULTS_IO_H_

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "harness/experiment.h"
#include "harness/experiment_engine.h"
#include "stats/json_writer.h"
#include "workload/apps.h"

namespace grit::harness {

class TextTable;

/** Schema identifier stamped into every document. */
inline constexpr const char *kResultsSchema = "grit-results";
/**
 * Bump on any backwards-incompatible layout change. Version 2 is a
 * purely additive revision of version 1: optional per-run
 * "partial"/"error" fields (watchdog-truncated runs whose counters
 * were salvaged) plus optional top-level "failures" (quarantined
 * runs manifest) and "sweep" (execution statistics) sections.
 */
inline constexpr unsigned kResultsVersion = 2;

/**
 * Open a document on @p json: the envelope (schema, version, generator,
 * title) and the workload "params" object. The caller writes the
 * payload, then closes the envelope with json.endObject().
 */
void beginResultsDocument(stats::JsonWriter &json,
                          std::string_view generator,
                          std::string_view title,
                          const workload::WorkloadParams &params);

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
