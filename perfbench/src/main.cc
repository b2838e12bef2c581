/**
 * @file
 * grit_perfbench: runs one benchmark workload and writes its raw
 * samples as one JSON document.
 *
 *   grit_perfbench --workload scale_1m|fig17_sweep|serve_mix --seed N
 *                  --seconds S --trace 0|1 [--smoke] [--scratch DIR]
 *                  --out PATH
 *
 * perfbench/run.py builds this program, runs it, and turns the
 * document into the benchmark's metrics (perfbench/README.md).
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "bench.h"
#include "stats/json_writer.h"

namespace {

using perfbench::Report;

void
writeReport(std::ostream &os, const perfbench::Options &options,
            const Report &report)
{
    grit::stats::JsonWriter w(os);
    w.beginObject();
    w.key("workload").value(options.workload);
    w.key("seed").value(options.seed);
    w.key("smoke").value(options.smoke);
    w.key("trace").value(options.trace);
    w.key("setup_s").beginArray();
    for (const double s : report.setupSeconds)
        w.value(s);
    w.endArray();
    w.key("reps").beginArray();
    for (const auto &rep : report.reps) {
        w.beginObject();
        w.key("seconds").value(rep.seconds);
        w.key("accesses").value(rep.accesses);
        w.key("requests").value(rep.requests);
        w.key("peak_rss_mib").value(rep.peakRssMib);
        w.endObject();
    }
    w.endArray();
    w.key("latency_ms").beginArray();
    for (const double ms : report.latencyMs)
        w.value(ms);
    w.endArray();
    w.key("digests").beginObject();
    for (const auto &[id, digest] : report.digests)
        w.key(id).value(digest);
    w.endObject();
    w.key("uses").beginObject();
    for (const auto &[id, n] : report.uses)
        w.key(id).value(n);
    w.endObject();
    w.key("attempted").value(report.attempted);
    w.key("failed").value(report.failed);
    w.key("failures").beginArray();
    for (const auto &f : report.failures)
        w.value(f);
    w.endArray();
    w.key("notes").beginArray();
    for (const auto &n : report.notes)
        w.value(n);
    w.endArray();
    w.key("checked").beginObject();
    for (const auto &[name, value] : report.checked)
        w.key(name).value(value);
    w.endObject();
    w.key("layers").beginObject();
    for (const auto &[name, value] : report.layers)
        w.key(name).value(value);
    w.endObject();
    w.key("traced_s").value(report.tracedSeconds);
    w.key("untraced_s").value(report.untracedSeconds);
    w.key("traced_accesses").value(report.tracedAccesses);
    w.key("workers").value(report.workers);
    w.key("spans").beginArray();
    for (const auto &span : report.spans) {
        w.beginObject();
        w.key("name").value(span.name);
        w.key("start").value(span.start);
        w.key("end").value(span.end);
        w.key("parent").value(span.parent);
        w.key("id").value(span.id);
        w.key("thread").value(span.thread);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << "\n";
}

int
usage(const std::string &why)
{
    std::cerr << "grit_perfbench: " << why
              << "\nusage: grit_perfbench --workload "
                 "scale_1m|fig17_sweep|serve_mix --seed N --seconds S "
                 "--trace 0|1 [--smoke] [--scratch DIR] --out PATH\n";
    return 2;
}

}  // namespace

int
main(int argc, char **argv)
{
    perfbench::Options options;
    std::string out;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            options.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage("missing value for " + arg);
        const std::string value = argv[++i];
        if (arg == "--workload")
            options.workload = value;
        else if (arg == "--seed")
            options.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (arg == "--seconds")
            options.seconds = std::strtod(value.c_str(), nullptr);
        else if (arg == "--trace")
            options.trace = value == "1";
        else if (arg == "--scratch")
            options.scratchDir = value;
        else if (arg == "--out")
            out = value;
        else
            return usage("unknown flag " + arg);
    }
    if (out.empty())
        return usage("--out is required");

    Report report;
    try {
        if (options.workload == "scale_1m")
            perfbench::runScale(options, report);
        else if (options.workload == "fig17_sweep")
            perfbench::runFig17(options, report);
        else if (options.workload == "serve_mix")
            perfbench::runServe(options, report);
        else
            return usage("unknown workload \"" + options.workload + "\"");
    } catch (const std::exception &e) {
        std::cerr << "grit_perfbench: " << options.workload
                  << " aborted: " << e.what() << "\n";
        return 1;
    }

    std::ofstream os(out);
    writeReport(os, options, report);
    os.close();
    if (!os) {
        std::cerr << "grit_perfbench: cannot write " << out << "\n";
        return 1;
    }
    return 0;
}
