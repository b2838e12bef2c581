#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "bench.h"
#include "harness/run_journal.h"
#include "stats/json_writer.h"

namespace perfbench {

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
peakRssMib()
{
    // VmHWM, not getrusage's ru_maxrss: the latter keeps the parent's
    // high-water mark across exec, so a small run would report the size
    // of the process that launched it.
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);)
        if (line.starts_with("VmHWM:"))
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    return 0.0;
}

bool
resetPeakRss()
{
    ::malloc_trim(0);
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";  // reset VmHWM to the current RSS
    clear.close();
    return static_cast<bool>(clear);
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : (values[mid - 1] + values[mid]) / 2.0;
}

namespace {

/** Spans open on this thread (indices into the recorder's store). */
thread_local std::vector<std::size_t> t_open;

}  // namespace

std::size_t
SpanRecorder::open(const std::string &name, const std::string &id)
{
    const double start = secondsSince(origin_);
    std::lock_guard<std::mutex> lock(mu_);
    const auto [it, inserted] = threads_.emplace(
        std::this_thread::get_id(), static_cast<unsigned>(threads_.size()));
    Span span;
    span.name = name;
    span.start = start;
    span.parent = t_open.empty() ? -1
                                 : static_cast<std::int64_t>(t_open.back());
    span.id = id;
    span.thread = it->second;
    spans_.push_back(std::move(span));
    t_open.push_back(spans_.size() - 1);
    return spans_.size() - 1;
}

void
SpanRecorder::close(std::size_t index)
{
    const double end = secondsSince(origin_);
    std::lock_guard<std::mutex> lock(mu_);
    spans_[index].end = end;
    if (!t_open.empty() && t_open.back() == index)
        t_open.pop_back();
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

grit::workload::ChunkHandle
TimedStream::next()
{
    ScopedSpan span(&recorder_, "workload.next", id_);
    grit::workload::ChunkHandle chunk = inner_->next();
    if (chunk)
        ++chunks_;
    return chunk;
}

void
decorateStreams(grit::workload::StreamedWorkload &workload,
                SpanRecorder &recorder, const std::string &id,
                std::uint64_t &chunks)
{
    for (auto &stream : workload.streams)
        stream = std::make_unique<TimedStream>(std::move(stream), recorder,
                                               id, chunks);
}

std::string
resultDigest(const grit::harness::RunResult &result)
{
    std::ostringstream os;
    grit::stats::JsonWriter writer(os);
    grit::harness::writeRunResultJson(writer, result);
    std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a 64
    for (const unsigned char c : os.str()) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(hash));
    return hex;
}

grit::harness::RunResult
withoutOptInCounters(grit::harness::RunResult result)
{
    std::erase_if(result.counters, [](const auto &entry) {
        for (const char *prefix :
             {"tlb.", "pwc.", "promote.", "splinter.", "fabric."})
            if (entry.first.starts_with(prefix))
                return true;
        return false;
    });
    return result;
}

void
Report::beginRep()
{
    if (!resetPeakRss() && reps.empty())
        notes.push_back("peak RSS could not be reset: each repetition's "
                        "figure covers the process so far");
}

void
Report::addRep(Rep rep)
{
    rep.peakRssMib = perfbench::peakRssMib();
    reps.push_back(rep);
}

void
Report::fail(const std::string &what)
{
    ++failed;
    if (failures.size() < 16)
        failures.push_back(what);
}

void
Report::checkDigest(const std::string &id, const std::string &digest,
                    const std::string &phase)
{
    const auto [it, inserted] = digests.emplace(id, digest);
    if (!inserted && it->second != digest)
        fail(phase + ": " + id + " digest " + digest + " != " +
             it->second);
    uses[id] += 1;
}

void
LayerCounts::add(const grit::harness::RunResult &result)
{
    accesses += result.accesses;
    events += result.eventsExecuted;
    batched += result.accessesBatched;
    faults += result.totalFaults();
    evictions += result.evictions;
    peakReplicas = std::max(peakReplicas, result.peakReplicas);
    for (std::size_t s = 0; s < schemeAccesses.size(); ++s)
        schemeAccesses[s] += result.schemeAccesses[s];
    for (const auto &[name, value] : result.counters)
        counters[name] += value;
}

void
LayerCounts::writeLayers(Report &report) const
{
    auto get = [this](const std::string &name) -> double {
        const auto it = counters.find(name);
        return it == counters.end() ? 0.0 : static_cast<double>(it->second);
    };
    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    const double n = static_cast<double>(accesses);
    auto &out = report.layers;
    // Results that crossed the service wire carry no event count.
    if (events > 0) {
        out["simcore.events"] = static_cast<double>(events);
        out["simcore.events_per_access"] =
            ratio(static_cast<double>(events), n);
        out["simcore.batched_share"] =
            ratio(static_cast<double>(batched), n);
    }
    // tlb.*, pwc.* and fabric.* exist only under the opt-in stats flags.
    if (counters.contains("tlb.l1_hits")) {
        out["mem.tlb_l1_hit_ratio"] = ratio(
            get("tlb.l1_hits"), get("tlb.l1_hits") + get("tlb.l1_misses"));
        out["mem.tlb_l2_hit_ratio"] = ratio(
            get("tlb.l2_hits"), get("tlb.l2_hits") + get("tlb.l2_misses"));
        out["mem.pwc_hit_ratio"] =
            ratio(get("pwc.hits"), get("pwc.hits") + get("pwc.misses"));
    }
    if (counters.contains("fabric.messages")) {
        out["interconnect.nvlink_bytes"] = get("fabric.nvlink_bytes");
        out["interconnect.pcie_bytes"] = get("fabric.pcie_bytes");
        out["interconnect.messages"] = get("fabric.messages");
    }
    out["mem.evictions"] = static_cast<double>(evictions);
    out["gpu.walks_per_access"] = ratio(get("gmmu.walks"), n);
    out["gpu.walk_queue_delay_cycles"] = get("gmmu.walk_queue_delay");
    out["uvm.faults_per_access"] = ratio(static_cast<double>(faults), n);
    out["uvm.coalesced_faults"] = get("uvm.coalesced_faults");
    out["uvm.migrations"] = get("uvm.migrations");
    out["uvm.duplications"] = get("uvm.duplications");
    out["uvm.collapses"] = get("uvm.collapses");
    out["uvm.spills"] = get("uvm.spills");
    out["uvm.server_queue_delay_cycles"] = get("uvm.server_queue_delay");
    out["uvm.peak_replicas"] = static_cast<double>(peakReplicas);
    out["core.grit_triggers"] = get("grit.triggers");
    out["core.nap_adoptions"] = get("grit.nap_adoptions");
    static const char *kSchemes[] = {"none", "on_touch", "access_counter",
                                     "duplication"};
    for (std::size_t s = 0; s < schemeAccesses.size(); ++s)
        out[std::string("policy.scheme_accesses.") + kSchemes[s]] =
            static_cast<double>(schemeAccesses[s]);
    out["interconnect.remote_accesses"] = get("sim.remote_accesses");
}

}  // namespace perfbench
