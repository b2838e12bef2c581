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

void
writeResultMatrix(std::ostream &os, std::string_view generator,
                  std::string_view title,
                  const workload::WorkloadParams &params,
                  const ResultMatrix &matrix)
{
    writeSweepResult(os, generator, title, params, matrix, {}, nullptr);
}

void
writeSweepResult(std::ostream &os, std::string_view generator,
                 std::string_view title,
                 const workload::WorkloadParams &params,
                 const ResultMatrix &matrix,
                 const std::vector<FailureRecord> &failures,
                 const SweepStatsView *stats)
{
    stats::ResultSink sink(os);
    sink.begin(generator, title);
    sink.writeParams(params.footprintDivisor, params.intensity,
                     params.seed);
    sink.beginRuns();
    for (const auto &[row, runs] : matrix) {
        for (const auto &[label, result] : runs) {
            sink.beginRun(row, label);
            writeRunResult(sink, result);
            sink.endRun();
        }
    }
    sink.endRuns();
    if (!failures.empty()) {
        sink.beginFailures();
        for (const FailureRecord &f : failures)
            sink.writeFailure(f.row, f.label, f.fingerprint,
                              sim::errorCodeName(f.error.code),
                              f.error.message, f.error.context,
                              f.attempts, f.salvaged);
        sink.endFailures();
    }
    if (stats != nullptr)
        sink.writeSweepStats(stats->executed, stats->reused,
                             stats->skipped, stats->cacheHits,
                             stats->cacheMisses, stats->cacheEvictions,
                             stats->cacheBytes, stats->cacheByteBudget);
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
    sink.begin(generator, title);
    sink.writeParams(params.footprintDivisor, params.intensity,
                     params.seed);
    sink.beginTables();
    for (const NamedTable &table : tables)
        sink.writeTable(table.name, table.columns, table.rows);
    sink.endTables();
    sink.end();
    os << '\n';
}

}  // namespace grit::harness
