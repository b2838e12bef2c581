/**
 * @file
 * Schema-aware serializer of run statistics: the "grit-results" JSON
 * envelope plus writers for the stats-layer types (StatSet counter
 * snapshots, LatencyBreakdown, IntervalSampler time series) and generic
 * report tables.
 *
 * The document layout is versioned and documented in docs/METRICS.md;
 * scripts/check_results_schema.py validates emitted files against it.
 * Serialization is deterministic: identical inputs yield byte-identical
 * documents regardless of platform, locale, or worker count.
 */

#ifndef GRIT_STATS_RESULT_SINK_H_
#define GRIT_STATS_RESULT_SINK_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "stats/json_writer.h"
#include "stats/latency_breakdown.h"
#include "stats/timeline.h"

namespace grit::stats {

class IntervalSampler;

/**
 * Writes one "grit-results" document.
 *
 * Call order: begin() → writeParams() → [beginRuns() → beginRun()/
 * endRun()... → endRuns()] → [beginTables() → writeTable()... →
 * endTables()] → end(). The runs and tables sections are both optional
 * (characterization binaries emit only tables). Inside a run, the
 * schema's fixed fields go through the typed writers; binary-specific
 * extras may use json() directly under an "extra" key.
 */
class ResultSink
{
  public:
    /** Schema identifier stamped into every document. */
    static constexpr const char *kSchemaName = "grit-results";
    /**
     * Bump on any backwards-incompatible layout change. Version 2 is a
     * purely additive revision of version 1: optional per-run
     * "partial"/"error" fields (watchdog-truncated runs whose counters
     * were salvaged) plus optional top-level "failures" (quarantined
     * runs manifest) and "sweep" (execution statistics) sections.
     */
    static constexpr unsigned kSchemaVersion = 2;

    explicit ResultSink(std::ostream &os) : json_(os) {}

    /** Open the envelope: schema/version/generator/title. */
    void begin(std::string_view generator, std::string_view title);

    /** The workload-generation knobs the run used ("params" object). */
    void writeParams(unsigned footprint_divisor, double intensity,
                     std::uint64_t seed);

    void beginRuns();
    void endRuns();

    /** Open one run object keyed by (row, label). */
    void beginRun(std::string_view row, std::string_view label);
    void endRun();

    /** One scalar field of the current run. */
    void scalar(std::string_view key, std::uint64_t v);
    void scalar(std::string_view key, double v);

    /** "latency_breakdown" object: the six Fig. 3 categories + total. */
    void writeBreakdown(const LatencyBreakdown &breakdown);

    /** "counters" object from a StatSet snapshot (name-sorted items). */
    void writeCounters(
        const std::vector<std::pair<std::string, std::uint64_t>> &items);

    /**
     * "timeline" object: interval width, key names, and one row of
     * per-key counts per interval, taken from @p sampler.
     */
    void writeTimeline(const IntervalSampler &sampler,
                       const std::vector<const char *> &key_names);

    /**
     * v2: flag the open run as truncated ("partial": true) and record
     * the structured diagnostic that truncated it. Only emitted for
     * salvaged runs, so complete runs serialize exactly as in v1.
     */
    void writePartial(std::string_view code, std::string_view message,
                      std::string_view context);

    /** v2: open/close the optional "failures" manifest array. */
    void beginFailures();
    void endFailures();

    /** One quarantined run in the "failures" manifest. */
    void writeFailure(std::string_view row, std::string_view label,
                      std::string_view fingerprint, std::string_view code,
                      std::string_view message, std::string_view context,
                      unsigned attempts, bool salvaged);

    void beginTables();
    void endTables();

    /** One named table: column headers plus string-cell rows. */
    void writeTable(std::string_view name,
                    const std::vector<std::string> &columns,
                    const std::vector<std::vector<std::string>> &rows);

    /** Close the envelope. */
    void end();

    /** Escape hatch for binary-specific fields (use sparingly). */
    JsonWriter &json() { return json_; }

  private:
    JsonWriter json_;
};

/** The timeline key names in TimelineKind order. */
std::vector<const char *> timelineKeyNames();

}  // namespace grit::stats

#endif  // GRIT_STATS_RESULT_SINK_H_
