/**
 * @file
 * The paper's eight applications (Table II) and the two DNN models of
 * Figure 31 as synthetic trace generators.
 *
 * Real OpenCL binaries are unavailable offline, so each generator is
 * built from the paper's published characterization of the application:
 * Table II's access archetype and footprint, Figure 4's private/shared
 * mix, Figure 5's temporal sharing behaviour, Figure 9's read/read-write
 * mix, and Figure 10's phase changes. Footprints are scaled down by
 * `WorkloadParams::footprintDivisor` (default 16) to keep simulations
 * fast while preserving thousands of pages; DESIGN.md documents the
 * substitution.
 */

#ifndef GRIT_WORKLOAD_APPS_H_
#define GRIT_WORKLOAD_APPS_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "workload/trace.h"
#include "workload/trace_stream.h"

namespace grit::workload {

/** Table II applications, then the DNN models of Figure 31. */
enum class AppId {
    kBfs, kBs, kC2d, kFir, kGemm, kMm, kSc, kSt, kVgg16, kResNet18
};

/** All eight applications in Table II order. */
inline constexpr std::array<AppId, 8> kAllApps = {
    AppId::kBfs, AppId::kBs,   AppId::kC2d, AppId::kFir,
    AppId::kGemm, AppId::kMm,  AppId::kSc,  AppId::kSt,
};

/**
 * The Figure 31 DNN models (Section VI-F): VGG16 and ResNet18
 * model-parallel training. Not Table II apps, so not in kAllApps.
 */
inline constexpr std::array<AppId, 2> kDnnModels = {AppId::kVgg16,
                                                    AppId::kResNet18};

/** Static metadata: a Table II row, or a DNN model's. */
struct AppMeta
{
    const char *abbr;
    const char *fullName;
    const char *suite;
    const char *pattern;
    unsigned paperFootprintMB;
};

/** Metadata for @p app (Table II row). */
const AppMeta &appMeta(AppId app);

/** Parse a Table II abbreviation ("BFS", case-insensitive). */
std::optional<AppId> appFromName(const std::string &name);

/** Generation parameters. */
struct WorkloadParams
{
    /** GPUs sharing the workload. */
    unsigned numGpus = 4;
    /**
     * Footprint scale: generated 4 KB pages =
     * paperFootprintMB * 256 / footprintDivisor, but at least
     * 8 * numGpus.
     */
    unsigned footprintDivisor = 16;
    /** Deterministic RNG seed. */
    std::uint64_t seed = 1;
    /** Multiplies iteration counts (trace length). */
    double intensity = 1.0;

    /** Field-wise equality (TraceCache key). */
    bool operator==(const WorkloadParams &) const = default;
};

/**
 * The largest intensity the entry points accept: the largest base
 * iteration count (48) scaled by it stays far below 2^32.
 */
inline constexpr double kMaxIntensity = 1e6;

/**
 * Metadata shell for @p app under @p params: everything but the
 * traces (name, suite, pattern, scaled footprint). Cheap — no
 * generation happens.
 */
Workload workloadShell(AppId app, const WorkloadParams &params = {});

/**
 * Emit @p app's full multi-GPU trace into @p sink, in generation
 * order. The streaming back end of makeWorkload: identical RNG draws,
 * bit-identical accesses, but the caller chooses where they land
 * (materialize, count, or chunk — workload/trace_stream.h).
 */
void generateTrace(AppId app, const WorkloadParams &params,
                   TraceSink &sink);

/** Generate the trace for @p app (materialized). */
Workload makeWorkload(AppId app, const WorkloadParams &params = {});

}  // namespace grit::workload

#endif  // GRIT_WORKLOAD_APPS_H_
