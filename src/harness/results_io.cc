#include "harness/results_io.h"

#include <ostream>

#include "harness/run_journal.h"
#include "harness/table.h"
#include "stats/latency_breakdown.h"
#include "stats/timeline.h"

namespace grit::harness {

namespace {

/** A JSON array of strings. */
void
writeStrings(stats::JsonWriter &json, const std::vector<std::string> &items)
{
    json.beginArray();
    for (const std::string &item : items)
        json.value(item);
    json.endArray();
}

/** One run object: (row, label), then every schema field of @p result. */
void
writeRun(stats::JsonWriter &json, std::string_view row,
         std::string_view label, const RunResult &result)
{
    json.beginObject();
    json.key("row").value(row);
    json.key("label").value(label);
    json.key("cycles").value(result.cycles);
    json.key("accesses").value(result.accesses);
    json.key("accesses_batched").value(result.accessesBatched);
    json.key("local_faults").value(result.localFaults);
    json.key("protection_faults").value(result.protectionFaults);
    json.key("total_faults").value(result.totalFaults());
    json.key("evictions").value(result.evictions);
    json.key("peak_replicas").value(result.peakReplicas);
    json.key("oversubscription_rate").value(result.oversubscriptionRate());

    // Fig. 19 accounting, keyed by the mem::Scheme PTE encoding.
    static constexpr const char *kSchemeKeys[4] = {
        "none", "on_touch", "access_counter", "duplication"};
    json.key("scheme_accesses").beginObject();
    for (unsigned s = 0; s < 4; ++s)
        json.key(kSchemeKeys[s]).value(result.schemeAccesses[s]);
    json.endObject();

    // Stable snake_case keys; the printable names stay the paper's
    // legend strings and are not schema identifiers.
    static constexpr const char *kLatencyKeys[stats::kLatencyKinds] = {
        "local",          "host",
        "page_migration", "remote_access",
        "page_duplication", "write_collapse",
    };
    json.key("latency_breakdown").beginObject();
    for (unsigned k = 0; k < stats::kLatencyKinds; ++k)
        json.key(kLatencyKeys[k]).value(
            result.breakdown.get(static_cast<stats::LatencyKind>(k)));
    json.key("total").value(result.breakdown.total());
    json.endObject();

    if (const auto &timeline = result.timeline) {
        json.key("timeline").beginObject();
        json.key("interval_cycles").value(timeline->intervalCycles());
        json.key("keys").beginArray();
        for (unsigned k = 0; k < stats::kTimelineKinds; ++k)
            json.value(stats::timelineKindName(
                static_cast<stats::TimelineKind>(k)));
        json.endArray();
        json.key("intervals").beginArray();
        for (std::size_t i = 0; i < timeline->intervals(); ++i) {
            json.beginArray();
            for (unsigned k = 0; k < timeline->keys(); ++k)
                json.value(timeline->get(i, k));
            json.endArray();
        }
        json.endArray();
        json.endObject();
    }

    json.key("counters").beginObject();
    for (const auto &[name, value] : result.counters)
        json.key(name).value(value);
    json.endObject();

    // v2: truncated runs flag themselves; complete runs emit nothing
    // extra, so their serialization is unchanged from v1.
    if (result.partial) {
        json.key("partial").value(true);
        json.key("error");
        writeErrorJson(json, result.error
                                 ? *result.error
                                 : sim::SimError(sim::ErrorCode::kInternal,
                                                 "partial result carries "
                                                 "no diagnostic"));
    }
    json.endObject();
}

/** The "runs" array: every (row, label) cell in map order. */
void
writeRuns(stats::JsonWriter &json, const ResultMatrix &matrix)
{
    json.key("runs").beginArray();
    for (const auto &[row, runs] : matrix)
        for (const auto &[label, result] : runs)
            writeRun(json, row, label, result);
    json.endArray();
}

}  // namespace

void
beginResultsDocument(stats::JsonWriter &json, std::string_view generator,
                     std::string_view title,
                     const workload::WorkloadParams &params)
{
    json.beginObject();
    json.key("schema").value(kResultsSchema);
    json.key("version").value(kResultsVersion);
    json.key("generator").value(generator);
    json.key("title").value(title);
    json.key("params").beginObject();
    json.key("footprint_divisor").value(params.footprintDivisor);
    json.key("intensity").value(params.intensity);
    json.key("seed").value(params.seed);
    json.endObject();
}

void
writeResultMatrix(std::ostream &os, std::string_view generator,
                  std::string_view title,
                  const workload::WorkloadParams &params,
                  const ResultMatrix &matrix)
{
    stats::JsonWriter json(os);
    beginResultsDocument(json, generator, title, params);
    writeRuns(json, matrix);
    json.endObject();
    os << '\n';
}

void
writeSweepResult(std::ostream &os, std::string_view generator,
                 std::string_view title,
                 const workload::WorkloadParams &params,
                 const SweepResult &sweep, const workload::TraceCache *cache)
{
    stats::JsonWriter json(os);
    beginResultsDocument(json, generator, title, params);
    writeRuns(json, sweep.matrix);
    if (!sweep.failures.empty()) {
        json.key("failures").beginArray();
        for (const FailureRecord &f : sweep.failures) {
            json.beginObject();
            json.key("row").value(f.row);
            json.key("label").value(f.label);
            json.key("fingerprint").value(f.fingerprint);
            json.key("error");
            writeErrorJson(json, f.error);
            json.key("attempts").value(f.attempts);
            json.key("salvaged").value(f.salvaged);
            json.endObject();
        }
        json.endArray();
    }
    if (cache != nullptr) {
        // Opt-in because reuse and cache numbers legitimately differ
        // between a fresh and a resumed sweep.
        json.key("sweep").beginObject();
        json.key("executed").value(std::uint64_t{sweep.executed});
        json.key("reused").value(std::uint64_t{sweep.reused});
        json.key("skipped").value(std::uint64_t{sweep.skipped});
        json.key("cache").beginObject();
        json.key("hits").value(cache->hits());
        json.key("misses").value(cache->misses());
        json.key("evictions").value(cache->evictions());
        json.key("bytes").value(cache->bytes());
        json.key("byte_budget").value(cache->byteBudget());
        json.endObject();
        json.endObject();
    }
    json.endObject();
    os << '\n';
}

NamedTable
namedTable(std::string name, const TextTable &table)
{
    return NamedTable{std::move(name), table.headers(), table.rows()};
}

void
writeResultTables(std::ostream &os, std::string_view generator,
                  std::string_view title,
                  const workload::WorkloadParams &params,
                  const std::vector<NamedTable> &tables)
{
    stats::JsonWriter json(os);
    beginResultsDocument(json, generator, title, params);
    json.key("tables").beginArray();
    for (const NamedTable &table : tables) {
        json.beginObject();
        json.key("name").value(table.name);
        json.key("columns");
        writeStrings(json, table.columns);
        json.key("rows").beginArray();
        for (const std::vector<std::string> &row : table.rows)
            writeStrings(json, row);
        json.endArray();
        json.endObject();
    }
    json.endArray();
    json.endObject();
    os << '\n';
}

}  // namespace grit::harness
