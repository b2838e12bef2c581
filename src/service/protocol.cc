#include "service/protocol.h"

#include <limits>
#include <sstream>

#include "harness/config.h"
#include "simcore/fault_injector.h"
#include "stats/json_value.h"
#include "stats/json_writer.h"

namespace grit::service {

namespace {

[[noreturn]] void
wireFail(const std::string &message)
{
    throw sim::SimException(sim::ErrorCode::kBadArgument, message,
                            "grit-service wire");
}

void
writeEnvelope(stats::JsonWriter &w)
{
    w.key("schema").value(kSchemaName);
    w.key("version").value(std::uint64_t{kSchemaVersion});
}

stats::JsonValue
parseEnvelope(const std::string &line)
{
    stats::JsonValue v;
    try {
        v = stats::JsonValue::parse(line);
    } catch (const std::runtime_error &e) {
        wireFail(std::string("malformed line: ") + e.what());
    }
    const stats::JsonValue *schema = v.find("schema");
    if (schema == nullptr || !schema->isString() ||
        schema->asString() != kSchemaName)
        wireFail("missing or foreign schema (want \"" +
                 std::string(kSchemaName) + "\")");
    const stats::JsonValue *version = v.find("version");
    if (version == nullptr || !version->isUnsigned() ||
        version->asUint64() != kSchemaVersion)
        wireFail("unsupported wire version (want " +
                 std::to_string(kSchemaVersion) + ")");
    return v;
}

/** @p v's unsigned value, refusing one a 32-bit field would truncate. */
unsigned
asUint32(const stats::JsonValue &v, const char *name)
{
    const std::uint64_t value = v.asUint64();
    if (value > std::numeric_limits<unsigned>::max())
        wireFail(std::string(name) + " " + std::to_string(value) +
                 " does not fit in 32 bits");
    return static_cast<unsigned>(value);
}

ServiceCounters
countersFromJson(const stats::JsonValue &v)
{
    ServiceCounters c;
    for (const ServiceCounterField &field : kServiceCounterFields)
        c.*field.member = v.at(field.name).asUint64();
    return c;
}

}  // namespace

void
writeServiceCounters(stats::JsonWriter &w, const ServiceCounters &counters)
{
    w.beginObject();
    for (const ServiceCounterField &field : kServiceCounterFields)
        w.key(field.name).value(counters.*field.member);
    w.endObject();
}

std::string
requestLine(const Request &request)
{
    std::ostringstream os;
    stats::JsonWriter w(os);
    w.beginObject();
    writeEnvelope(w);
    w.key("op").value(request.op);
    if (request.op == "run") {
        const RunRequest &r = request.run;
        w.key("client").value(r.client);
        w.key("app").value(r.app);
        w.key("policy").value(r.policy);
        w.key("num_gpus").value(std::uint64_t{r.numGpus});
        w.key("params").beginObject();
        w.key("footprint_divisor")
            .value(std::uint64_t{r.params.footprintDivisor});
        w.key("intensity").value(r.params.intensity);
        w.key("seed").value(r.params.seed);
        w.endObject();
        w.key("deadline_sec").value(r.deadlineSec);
        w.key("event_budget").value(r.eventBudget);
        w.key("chaos").value(r.chaos);
        w.key("audit").value(r.audit);
    }
    w.endObject();
    return os.str();
}

Request
requestFromLine(const std::string &line)
{
    const stats::JsonValue v = parseEnvelope(line);
    Request request;
    try {
        request.op = v.at("op").asString();
        if (request.op == "ping" || request.op == "stats" ||
            request.op == "compact")
            return request;
        if (request.op != "run")
            wireFail("unknown op \"" + request.op + "\"");
        RunRequest &r = request.run;
        r.client = v.at("client").asString();
        r.app = v.at("app").asString();
        r.policy = v.at("policy").asString();
        r.numGpus = asUint32(v.at("num_gpus"), "num_gpus");
        const stats::JsonValue &params = v.at("params");
        r.params.footprintDivisor = asUint32(
            params.at("footprint_divisor"), "footprint_divisor");
        r.params.intensity = params.at("intensity").asDouble();
        r.params.seed = params.at("seed").asUint64();
        r.params.numGpus = r.numGpus;
        r.deadlineSec = v.at("deadline_sec").asDouble();
        r.eventBudget = v.at("event_budget").asUint64();
        r.chaos = v.at("chaos").asString();
        r.audit = v.at("audit").asBool();
    } catch (const std::runtime_error &e) {
        if (dynamic_cast<const sim::SimException *>(&e))
            throw;
        wireFail(std::string("malformed request: ") + e.what());
    }
    return request;
}

std::string
responseLine(const Response &response)
{
    std::ostringstream os;
    stats::JsonWriter w(os);
    w.beginObject();
    writeEnvelope(w);
    w.key("status").value(response.status);
    w.key("cached").value(response.cached);
    w.key("deduped").value(response.deduped);
    w.key("persisted").value(response.persisted);
    if (response.entry) {
        w.key("entry");
        harness::writeJournalEntryJson(w, *response.entry);
    }
    if (response.error) {
        w.key("error");
        harness::writeErrorJson(w, *response.error);
    }
    if (response.service) {
        w.key("service");
        writeServiceCounters(w, *response.service);
    }
    if (response.ping) {
        w.key("server").beginObject();
        w.key("version").value(response.ping->version);
        w.key("draining").value(response.ping->draining);
        w.endObject();
    }
    w.endObject();
    return os.str();
}

Response
responseFromLine(const std::string &line)
{
    const stats::JsonValue v = parseEnvelope(line);
    Response response;
    try {
        response.status = v.at("status").asString();
        if (response.status != "ok" && response.status != "failed" &&
            response.status != "error")
            wireFail("unknown status \"" + response.status + "\"");
        response.cached = v.at("cached").asBool();
        response.deduped = v.at("deduped").asBool();
        response.persisted = v.at("persisted").asBool();
        if (const stats::JsonValue *entry = v.find("entry"))
            response.entry = harness::journalEntryFromJson(*entry);
        if (const stats::JsonValue *error = v.find("error"))
            response.error = harness::errorFromJson(*error);
        if (const stats::JsonValue *service = v.find("service"))
            response.service = countersFromJson(*service);
        if (const stats::JsonValue *server = v.find("server")) {
            PingInfo info;
            info.version = server->at("version").asString();
            info.draining = server->at("draining").asBool();
            response.ping = info;
        }
    } catch (const std::runtime_error &e) {
        if (dynamic_cast<const sim::SimException *>(&e))
            throw;
        wireFail(std::string("malformed response: ") + e.what());
    }
    return response;
}

harness::RunCell
cellFromRequest(const RunRequest &request)
{
    const auto app = workload::appFromName(request.app);
    if (!app)
        throw sim::SimException(
            sim::ErrorCode::kBadArgument,
            "unknown application \"" + request.app +
                "\" (Table II abbreviations: BFS, BS, C2D, FIR, GEMM, "
                "MM, SC, ST)",
            "grit-service request");
    const auto kind = harness::policyKindFromName(request.policy);
    if (!kind)
        throw sim::SimException(
            sim::ErrorCode::kBadArgument,
            "unknown policy \"" + request.policy +
                "\" (try grit, on-touch, access-counter, duplication, "
                "first-touch, ideal, griffin-dpc, gps)",
            "grit-service request");
    if (request.numGpus == 0 || request.numGpus > harness::kMaxGpus)
        throw sim::SimException(sim::ErrorCode::kBadArgument,
                                "num_gpus must be from 1 to " +
                                    std::to_string(harness::kMaxGpus),
                                "grit-service request");
    if (request.params.footprintDivisor == 0)
        throw sim::SimException(sim::ErrorCode::kBadArgument,
                                "footprint_divisor must be at least 1",
                                "grit-service request");
    if (!(request.params.intensity >= 0.0 &&
          request.params.intensity <= workload::kMaxIntensity))
        throw sim::SimException(sim::ErrorCode::kBadArgument,
                                "intensity must be from 0 to 1e6",
                                "grit-service request");

    harness::SystemConfig config =
        harness::makeConfig(*kind, request.numGpus);
    if (!request.chaos.empty())
        config.chaos = sim::ChaosSpec::parse(request.chaos);
    if (request.audit)
        config.audit = true;

    workload::WorkloadParams params = request.params;
    params.numGpus = request.numGpus;

    harness::RunCell cell;
    cell.row = workload::appMeta(*app).abbr;
    cell.label = harness::policyKindName(*kind);
    cell.config = std::move(config);
    cell.app = *app;
    cell.params = params;
    return cell;
}

}  // namespace grit::service
