#include "harness/run_journal.h"

#include <bit>
#include <sstream>

#include "harness/experiment_engine.h"
#include "simcore/rng.h"
#include "stats/timeline.h"
#include "workload/apps.h"

namespace grit::harness {

namespace {

/** Running digest: order-sensitive fold of 64-bit words. */
class Digest
{
  public:
    void
    word(std::uint64_t v)
    {
        state_ = sim::mix64(state_ ^ sim::mix64(v));
    }
    void word(double v) { word(std::bit_cast<std::uint64_t>(v)); }
    void word(bool v) { word(std::uint64_t{v}); }
    void
    text(std::string_view s)
    {
        word(std::uint64_t{s.size()});
        for (char c : s)
            word(std::uint64_t{static_cast<unsigned char>(c)});
    }
    std::uint64_t value() const { return state_; }

  private:
    std::uint64_t state_ = 0x243F6A8885A308D3ULL;  // pi fraction
};

std::string
hex64(std::uint64_t v)
{
    static const char *digits = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[v & 0xF];
        v >>= 4;
    }
    return out;
}

[[noreturn]] void
journalFail(const std::string &message, const std::string &context = {})
{
    throw sim::SimException(sim::ErrorCode::kJournal, message, context);
}

}  // namespace

void
writeErrorJson(stats::JsonWriter &w, const sim::SimError &error)
{
    w.beginObject();
    w.key("code").value(sim::errorCodeName(error.code));
    w.key("message").value(error.message);
    w.key("context").value(error.context);
    w.endObject();
}

sim::SimError
errorFromJson(const stats::JsonValue &v)
{
    sim::SimError error;
    const std::string &name = v.at("code").asString();
    const auto code = sim::errorCodeFromName(name);
    if (!code)
        journalFail("unknown error code '" + name + "'");
    error.code = *code;
    error.message = v.at("message").asString();
    error.context = v.at("context").asString();
    return error;
}

std::uint64_t
configDigest(const SystemConfig &config)
{
    Digest d;
    d.word(std::uint64_t{config.numGpus});
    d.word(config.geometry.baseSize);
    d.word(config.geometry.hugeSize);
    d.word(config.geometry.hugePages);
    d.word(std::uint64_t{config.geometry.promoteFaultThreshold});
    d.word(config.memoryFraction);
    d.text(policyKindName(config.policy));
    d.word(config.prefetch);
    d.word(config.batchAccesses);
    d.word(config.timelineIntervalCycles);
    d.word(config.audit);
    d.word(std::uint64_t{config.counterThreshold});
    d.word(config.uvm.acud);
    d.word(config.uvm.transFw);
    d.text(ic::topologyKindName(config.topology));
    d.word(config.fabricStats);
    d.word(config.pageSizeStats);
    d.word(std::uint64_t{config.grit.faultThreshold});
    d.word(config.grit.paCacheEnabled);
    d.word(config.grit.napEnabled);

    const sim::ChaosSpec &c = config.chaos;
    d.word(c.seed);
    d.word(c.linkFlap.period);
    d.word(c.linkFlap.duty);
    d.word(c.linkFlap.prob);
    d.word(std::uint64_t{c.linkSlow.factor});
    d.word(c.linkSlow.period);
    d.word(c.linkSlow.duty);
    d.word(c.serviceDelay.extra);
    d.word(c.serviceDelay.period);
    d.word(c.serviceDelay.duty);
    d.word(std::uint64_t{c.pressure.pages});
    d.word(c.pressure.period);
    d.word(c.pressure.start);
    d.word(c.promoteStorm.period);
    d.word(c.promoteStorm.start);
    d.word(c.paFlush.period);
    d.word(c.paDisable.start);
    d.word(c.paDisable.end);
    d.word(c.hang.at);

    return d.value();
}

std::string
runFingerprint(const RunCell &cell)
{
    Digest d;
    d.text(cell.row);
    d.text(cell.label);
    d.text("app");
    d.text(workload::appMeta(cell.app).abbr);
    d.word(std::uint64_t{cell.params.numGpus});
    d.word(std::uint64_t{cell.params.footprintDivisor});
    d.word(cell.params.seed);
    d.word(cell.params.intensity);
    d.word(configDigest(cell.config));
    return hex64(d.value());
}

void
writeRunResultJson(stats::JsonWriter &w, const RunResult &result)
{
    w.beginObject();
    w.key("cycles").value(result.cycles);
    w.key("accesses").value(result.accesses);
    w.key("accesses_batched").value(result.accessesBatched);
    w.key("local_faults").value(result.localFaults);
    w.key("protection_faults").value(result.protectionFaults);
    w.key("evictions").value(result.evictions);
    w.key("peak_replicas").value(result.peakReplicas);
    w.key("breakdown").beginArray();
    for (unsigned k = 0; k < stats::kLatencyKinds; ++k)
        w.value(result.breakdown.get(static_cast<stats::LatencyKind>(k)));
    w.endArray();
    w.key("scheme_accesses").beginArray();
    for (std::uint64_t v : result.schemeAccesses)
        w.value(v);
    w.endArray();
    w.key("counters").beginObject();
    for (const auto &[name, value] : result.counters)
        w.key(name).value(value);
    w.endObject();
    if (result.timeline) {
        const stats::IntervalSampler &t = *result.timeline;
        w.key("timeline").beginObject();
        w.key("interval_cycles").value(t.intervalCycles());
        w.key("keys").value(std::uint64_t{t.keys()});
        w.key("cells").beginArray();
        for (std::size_t i = 0; i < t.intervals(); ++i) {
            w.beginArray();
            for (unsigned k = 0; k < t.keys(); ++k)
                w.value(t.get(i, k));
            w.endArray();
        }
        w.endArray();
        w.endObject();
    }
    w.key("audit_findings").beginArray();
    for (const std::string &finding : result.auditFindings)
        w.value(finding);
    w.endArray();
    w.key("partial").value(result.partial);
    if (result.error) {
        w.key("error");
        writeErrorJson(w, *result.error);
    }
    w.endObject();
}

RunResult
runResultFromJson(const stats::JsonValue &v)
{
    try {
        RunResult r;
        r.cycles = v.at("cycles").asUint64();
        r.accesses = v.at("accesses").asUint64();
        r.accessesBatched = v.at("accesses_batched").asUint64();
        r.localFaults = v.at("local_faults").asUint64();
        r.protectionFaults = v.at("protection_faults").asUint64();
        r.evictions = v.at("evictions").asUint64();
        r.peakReplicas = v.at("peak_replicas").asUint64();
        const auto &breakdown = v.at("breakdown").asArray();
        if (breakdown.size() != stats::kLatencyKinds)
            journalFail("breakdown must have " +
                        std::to_string(stats::kLatencyKinds) + " cells");
        for (unsigned k = 0; k < stats::kLatencyKinds; ++k)
            r.breakdown.add(static_cast<stats::LatencyKind>(k),
                            breakdown[k].asUint64());
        const auto &schemes = v.at("scheme_accesses").asArray();
        if (schemes.size() != r.schemeAccesses.size())
            journalFail("scheme_accesses must have " +
                        std::to_string(r.schemeAccesses.size()) +
                        " cells");
        for (std::size_t k = 0; k < schemes.size(); ++k)
            r.schemeAccesses[k] = schemes[k].asUint64();
        for (const auto &[name, value] : v.at("counters").asObject())
            r.counters.emplace_back(name, value.asUint64());
        if (const stats::JsonValue *t = v.find("timeline")) {
            const sim::Cycle interval =
                t->at("interval_cycles").asUint64();
            const auto keys =
                static_cast<unsigned>(t->at("keys").asUint64());
            r.timeline.emplace(interval, keys);
            const auto &cells = t->at("cells").asArray();
            for (std::size_t i = 0; i < cells.size(); ++i) {
                const auto &rowCells = cells[i].asArray();
                if (rowCells.size() != keys)
                    journalFail("timeline row width mismatch");
                // record() with n = 0 still grows the interval vector,
                // so empty trailing intervals round-trip exactly.
                for (unsigned k = 0; k < keys; ++k)
                    r.timeline->record(i * interval, k,
                                       rowCells[k].asUint64());
            }
        }
        for (const auto &finding : v.at("audit_findings").asArray())
            r.auditFindings.push_back(finding.asString());
        r.partial = v.at("partial").asBool();
        if (const stats::JsonValue *e = v.find("error"))
            r.error = errorFromJson(*e);
        return r;
    } catch (const std::runtime_error &e) {
        if (dynamic_cast<const sim::SimException *>(&e))
            throw;
        journalFail(std::string("malformed run result: ") + e.what());
    }
}

void
writeJournalEntryJson(stats::JsonWriter &w, const JournalEntry &entry)
{
    w.beginObject();
    w.key("fp").value(entry.fingerprint);
    w.key("row").value(entry.row);
    w.key("label").value(entry.label);
    w.key("status").value(entry.status);
    w.key("attempts").value(std::uint64_t{entry.attempts});
    if (entry.hasResult) {
        w.key("result");
        writeRunResultJson(w, entry.result);
    }
    if (entry.error) {
        w.key("error");
        writeErrorJson(w, *entry.error);
    }
    w.endObject();
}

std::string
journalLine(const JournalEntry &entry)
{
    std::ostringstream os;
    stats::JsonWriter w(os);
    writeJournalEntryJson(w, entry);
    return os.str();
}

JournalEntry
journalEntryFromJson(const stats::JsonValue &v)
{
    try {
        JournalEntry entry;
        entry.fingerprint = v.at("fp").asString();
        entry.row = v.at("row").asString();
        entry.label = v.at("label").asString();
        entry.status = v.at("status").asString();
        if (entry.status != "ok" && entry.status != "failed")
            journalFail("unknown entry status '" + entry.status + "'");
        entry.attempts =
            static_cast<unsigned>(v.at("attempts").asUint64());
        if (const stats::JsonValue *r = v.find("result")) {
            entry.hasResult = true;
            entry.result = runResultFromJson(*r);
        }
        if (const stats::JsonValue *e = v.find("error"))
            entry.error = errorFromJson(*e);
        if (entry.status == "ok" && !entry.hasResult)
            journalFail("'ok' entry without a result");
        return entry;
    } catch (const std::runtime_error &e) {
        if (dynamic_cast<const sim::SimException *>(&e))
            throw;
        journalFail(std::string("malformed journal entry: ") + e.what());
    }
}

JournalEntry
journalEntryFromLine(const std::string &line)
{
    try {
        return journalEntryFromJson(stats::JsonValue::parse(line));
    } catch (const std::runtime_error &e) {
        if (dynamic_cast<const sim::SimException *>(&e))
            throw;
        journalFail(std::string("malformed journal line: ") + e.what());
    }
}

}  // namespace grit::harness
