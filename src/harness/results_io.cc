#include "harness/results_io.h"

#include <ostream>

#include "harness/table.h"

namespace grit::harness {

void
writeRunResult(stats::ResultSink &sink, const RunResult &result)
{
    sink.scalar("cycles", result.cycles);
    sink.scalar("accesses", result.accesses);
    sink.scalar("accesses_batched", result.accessesBatched);
    sink.scalar("local_faults", result.localFaults);
    sink.scalar("protection_faults", result.protectionFaults);
    sink.scalar("total_faults", result.totalFaults());
    sink.scalar("evictions", result.evictions);
    sink.scalar("peak_replicas", result.peakReplicas);
    sink.scalar("oversubscription_rate", result.oversubscriptionRate());

    // Fig. 19 accounting, keyed by the mem::Scheme PTE encoding.
    static constexpr const char *kSchemeKeys[4] = {
        "none", "on_touch", "access_counter", "duplication"};
    sink.json().key("scheme_accesses").beginObject();
    for (unsigned s = 0; s < 4; ++s)
        sink.json().key(kSchemeKeys[s]).value(result.schemeAccesses[s]);
    sink.json().endObject();

    sink.writeBreakdown(result.breakdown);
    if (result.timeline.has_value())
        sink.writeTimeline(*result.timeline, stats::timelineKeyNames());
    sink.writeCounters(result.counters);

    // v2: truncated runs flag themselves; complete runs emit nothing
    // extra, so their serialization is unchanged from v1.
    if (result.partial) {
        const sim::SimError fallback(
            sim::ErrorCode::kInternal,
            "partial result carries no diagnostic");
        const sim::SimError &error =
            result.error ? *result.error : fallback;
        sink.writePartial(sim::errorCodeName(error.code), error.message,
                          error.context);
    }
}

namespace {

/** Open @p sink's envelope and write the workload parameters. */
void
beginDocument(stats::ResultSink &sink, std::string_view generator,
              std::string_view title, const workload::WorkloadParams &params)
{
    sink.begin(generator, title);
    sink.writeParams(params.footprintDivisor, params.intensity,
                     params.seed);
}

/** The "runs" array: every (row, label) cell in map order. */
void
writeRuns(stats::ResultSink &sink, const ResultMatrix &matrix)
{
    sink.beginRuns();
    for (const auto &[row, runs] : matrix) {
        for (const auto &[label, result] : runs) {
            sink.beginRun(row, label);
            writeRunResult(sink, result);
            sink.endRun();
        }
    }
    sink.endRuns();
}

}  // namespace

void
writeResultMatrix(std::ostream &os, std::string_view generator,
                  std::string_view title,
                  const workload::WorkloadParams &params,
                  const ResultMatrix &matrix)
{
    stats::ResultSink sink(os);
    beginDocument(sink, generator, title, params);
    writeRuns(sink, matrix);
    sink.end();
    os << '\n';
}

void
writeSweepResult(std::ostream &os, std::string_view generator,
                 std::string_view title,
                 const workload::WorkloadParams &params,
                 const SweepResult &sweep, const workload::TraceCache *cache)
{
    stats::ResultSink sink(os);
    beginDocument(sink, generator, title, params);
    writeRuns(sink, sweep.matrix);
    if (!sweep.failures.empty()) {
        sink.beginFailures();
        for (const FailureRecord &f : sweep.failures)
            sink.writeFailure(f.row, f.label, f.fingerprint,
                              sim::errorCodeName(f.error.code),
                              f.error.message, f.error.context,
                              f.attempts, f.salvaged);
        sink.endFailures();
    }
    if (cache != nullptr) {
        // Opt-in because reuse and cache numbers legitimately differ
        // between a fresh and a resumed sweep.
        stats::JsonWriter &json = sink.json();
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
    sink.end();
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
    stats::ResultSink sink(os);
    beginDocument(sink, generator, title, params);
    sink.beginTables();
    for (const NamedTable &table : tables)
        sink.writeTable(table.name, table.columns, table.rows);
    sink.endTables();
    sink.end();
    os << '\n';
}

}  // namespace grit::harness
