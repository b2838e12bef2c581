#include "stats/result_sink.h"

#include "stats/interval_sampler.h"

namespace grit::stats {

void
ResultSink::begin(std::string_view generator, std::string_view title)
{
    json_.beginObject();
    json_.key("schema").value(kSchemaName);
    json_.key("version").value(kSchemaVersion);
    json_.key("generator").value(generator);
    json_.key("title").value(title);
}

void
ResultSink::writeParams(unsigned footprint_divisor, double intensity,
                        std::uint64_t seed)
{
    json_.key("params").beginObject();
    json_.key("footprint_divisor").value(footprint_divisor);
    json_.key("intensity").value(intensity);
    json_.key("seed").value(seed);
    json_.endObject();
}

void
ResultSink::beginRuns()
{
    json_.key("runs").beginArray();
}

void
ResultSink::endRuns()
{
    json_.endArray();
}

void
ResultSink::beginRun(std::string_view row, std::string_view label)
{
    json_.beginObject();
    json_.key("row").value(row);
    json_.key("label").value(label);
}

void
ResultSink::endRun()
{
    json_.endObject();
}

void
ResultSink::scalar(std::string_view key, std::uint64_t v)
{
    json_.key(key).value(v);
}

void
ResultSink::scalar(std::string_view key, double v)
{
    json_.key(key).value(v);
}

void
ResultSink::writeBreakdown(const LatencyBreakdown &breakdown)
{
    // Stable snake_case keys; the printable names stay the paper's
    // legend strings and are not schema identifiers.
    static constexpr const char *kKeys[kLatencyKinds] = {
        "local",          "host",
        "page_migration", "remote_access",
        "page_duplication", "write_collapse",
    };
    json_.key("latency_breakdown").beginObject();
    for (unsigned k = 0; k < kLatencyKinds; ++k)
        json_.key(kKeys[k]).value(
            breakdown.get(static_cast<LatencyKind>(k)));
    json_.key("total").value(breakdown.total());
    json_.endObject();
}

void
ResultSink::writeCounters(
    const std::vector<std::pair<std::string, std::uint64_t>> &items)
{
    json_.key("counters").beginObject();
    for (const auto &[name, value] : items)
        json_.key(name).value(value);
    json_.endObject();
}

void
ResultSink::writeTimeline(const IntervalSampler &sampler,
                          const std::vector<const char *> &key_names)
{
    json_.key("timeline").beginObject();
    json_.key("interval_cycles").value(sampler.intervalCycles());
    json_.key("keys").beginArray();
    for (const char *name : key_names)
        json_.value(name);
    json_.endArray();
    json_.key("intervals").beginArray();
    for (std::size_t i = 0; i < sampler.intervals(); ++i) {
        json_.beginArray();
        for (unsigned k = 0; k < sampler.keys(); ++k)
            json_.value(sampler.get(i, k));
        json_.endArray();
    }
    json_.endArray();
    json_.endObject();
}

void
ResultSink::writePartial(std::string_view code, std::string_view message,
                         std::string_view context)
{
    json_.key("partial").value(true);
    json_.key("error").beginObject();
    json_.key("code").value(code);
    json_.key("message").value(message);
    json_.key("context").value(context);
    json_.endObject();
}

void
ResultSink::beginFailures()
{
    json_.key("failures").beginArray();
}

void
ResultSink::endFailures()
{
    json_.endArray();
}

void
ResultSink::writeFailure(std::string_view row, std::string_view label,
                         std::string_view fingerprint,
                         std::string_view code, std::string_view message,
                         std::string_view context, unsigned attempts,
                         bool salvaged)
{
    json_.beginObject();
    json_.key("row").value(row);
    json_.key("label").value(label);
    json_.key("fingerprint").value(fingerprint);
    json_.key("error").beginObject();
    json_.key("code").value(code);
    json_.key("message").value(message);
    json_.key("context").value(context);
    json_.endObject();
    json_.key("attempts").value(attempts);
    json_.key("salvaged").value(salvaged);
    json_.endObject();
}

void
ResultSink::beginTables()
{
    json_.key("tables").beginArray();
}

void
ResultSink::endTables()
{
    json_.endArray();
}

void
ResultSink::writeTable(std::string_view name,
                       const std::vector<std::string> &columns,
                       const std::vector<std::vector<std::string>> &rows)
{
    json_.beginObject();
    json_.key("name").value(name);
    json_.key("columns").beginArray();
    for (const std::string &c : columns)
        json_.value(c);
    json_.endArray();
    json_.key("rows").beginArray();
    for (const auto &row : rows) {
        json_.beginArray();
        for (const std::string &cell : row)
            json_.value(cell);
        json_.endArray();
    }
    json_.endArray();
    json_.endObject();
}

void
ResultSink::end()
{
    json_.endObject();
}

std::vector<const char *>
timelineKeyNames()
{
    std::vector<const char *> names;
    names.reserve(kTimelineKinds);
    for (unsigned k = 0; k < kTimelineKinds; ++k)
        names.push_back(timelineKindName(static_cast<TimelineKind>(k)));
    return names;
}

}  // namespace grit::stats
