#include "workload/apps.h"

#include <algorithm>
#include <cassert>
#include <cctype>

#include "workload/generators.h"

namespace grit::workload {

namespace {

const AppMeta kMeta[] = {
    {"BFS", "Breadth-first Search", "SHOC", "Random", 32},
    {"BS", "Bitonic Sort", "AMDAPPSDK", "Random", 30},
    {"C2D", "Convolution 2D", "DNN-Mark", "Adjacent", 94},
    {"FIR", "Finite Impulse Resp.", "Hetero-Mark", "Adjacent", 155},
    {"GEMM", "General Matrix Multiplication", "AMDAPPSDK",
     "Scatter-Gather", 16},
    {"MM", "Matrix Multiplication", "AMDAPPSDK", "Scatter-Gather", 33},
    {"SC", "Simple Convolution", "AMDAPPSDK", "Adjacent", 131},
    {"ST", "Stencil 2D", "SHOC", "Adjacent", 33},
    {"VGG16", "VGG16 model-parallel training", "DNN", "Pipeline", 64},
    {"ResNet18", "ResNet18 model-parallel training", "DNN", "Pipeline", 48},
};

/** Iteration count scaled by intensity, at least one. */
unsigned
iters(unsigned base, double intensity)
{
    const double scaled = base * intensity;
    return scaled < 1.0 ? 1u : static_cast<unsigned>(scaled);
}

Workload
shell(AppId app, const WorkloadParams &params)
{
    const AppMeta &meta = appMeta(app);
    Workload w;
    w.name = meta.abbr;
    w.fullName = meta.fullName;
    w.suite = meta.suite;
    w.pattern = meta.pattern;
    w.paperFootprintMB = meta.paperFootprintMB;
    // The floor gives every per-GPU region slice at least one page at
    // any divisor; it cannot bind at the default divisor.
    w.footprintGenPages = std::max<std::uint64_t>(
        std::uint64_t{meta.paperFootprintMB} * 256 /
            params.footprintDivisor,
        std::uint64_t{8} * params.numGpus);
    return w;
}

/**
 * BFS (SHOC): random graph traversal. The CSR graph structure is
 * read-shared by every GPU with a sparse random pattern (many shared
 * pages, few accesses each); per-GPU frontier/visited arrays are
 * private and hot, mostly read (Figs. 4 and 9: BFS is read-dominant and
 * most accesses land on the dominant page class).
 */
void
genBfs(const WorkloadParams &params, std::uint64_t pages,
       TraceSink &sink)
{
    TraceBuilder tb(params.numGpus, params.seed ^ 0xBF5ULL, sink);
    RegionAllocator ra;
    const Region graph = ra.alloc(pages * 7 / 10);
    const Region frontier = ra.alloc(pages - graph.pages);

    const unsigned rounds = iters(12, params.intensity);
    for (unsigned r = 0; r < rounds; ++r) {
        // The frontier wave visits a sliding window of the graph: the
        // whole graph ends up shared across GPUs (Fig. 4) while each
        // round's working set stays bounded, and only a small share of
        // all accesses lands on shared pages.
        const std::uint64_t window =
            std::max<std::uint64_t>(1, graph.pages / 8);
        const Region wave{graph.firstPage +
                              (r * window / 2) % (graph.pages - window + 1),
                          window};
        for (unsigned g = 0; g < params.numGpus; ++g) {
            tb.randomAccesses(g, wave, 1000, /*write_prob=*/0.0);
            // Hot private frontier state: the visited/level arrays are
            // read-only pages; a small output queue takes the writes
            // (Fig. 9: BFS accesses overwhelmingly hit read pages).
            const Region mine = frontier.slice(g, params.numGpus);
            const Region visited{mine.firstPage, mine.pages * 4 / 5};
            const Region queue{visited.endPage(),
                               mine.pages - visited.pages};
            tb.randomAccesses(g, visited, 5000, /*write_prob=*/0.0);
            tb.randomAccesses(g, queue, 500, /*write_prob=*/0.5);
        }
    }
}

/**
 * BS (AMDAPPSDK): bitonic sort. Every stage re-partitions the array
 * across GPUs with a rotated interleaving, so the same pages are read
 * and written by different GPUs stage after stage — the all-shared
 * read-write pattern where write collapses devastate duplication and
 * on-touch ping-pongs (Fig. 1: access-counter wins).
 */
void
genBs(const WorkloadParams &params, std::uint64_t pages,
      TraceSink &sink)
{
    TraceBuilder tb(params.numGpus, params.seed ^ 0xB17ULL, sink);
    RegionAllocator ra;
    const Region array = ra.alloc(pages);

    const unsigned stages = iters(14, params.intensity);
    for (unsigned s = 0; s < stages; ++s) {
        for (unsigned g = 0; g < params.numGpus; ++g) {
            // Rotated interleaving: GPU g works on pages whose index
            // maps to (g + s) under the stage's stride partition, so
            // every page is read *and written* by a different GPU each
            // stage — the all-shared read-write pattern that collapses
            // duplication and ping-pongs on-touch.
            const std::uint64_t stride = params.numGpus;
            const std::uint64_t offset = (g + s) % params.numGpus;
            tb.stridedPass(g, array, offset, stride, /*per_page=*/14,
                           /*write_prob=*/0.45);
            // A few compare-exchange partners across the whole array.
            tb.randomAccesses(g, array, 400, /*write_prob=*/0.40);
        }
    }
}

/**
 * C2D (DNN-Mark): 2D convolution layer chain. Activation buffer slices
 * are written by one GPU and read by its successor — the
 * producer-consumer sharing of Fig. 5(a) with only two faults per page,
 * which keeps GRIT on the initial on-touch scheme (Section VI-A).
 */
void
genC2d(const WorkloadParams &params, std::uint64_t pages,
       TraceSink &sink)
{
    TraceBuilder tb(params.numGpus, params.seed ^ 0xC2DULL, sink);
    RegionAllocator ra;

    const unsigned layers = 8;
    std::vector<Region> acts;
    acts.reserve(layers);
    for (unsigned l = 0; l < layers; ++l)
        acts.push_back(ra.alloc(pages / layers));

    const unsigned passes = iters(1, params.intensity);
    for (unsigned pass = 0; pass < passes; ++pass) {
        for (unsigned l = 0; l + 1 < layers; ++l) {
            for (unsigned g = 0; g < params.numGpus; ++g) {
                // Consume the slice the previous GPU produced...
                const unsigned producer =
                    (g + params.numGpus - 1) % params.numGpus;
                tb.sweep(g, acts[l].slice(producer, params.numGpus),
                         /*per_page=*/28, /*write_prob=*/0.0);
                // ...and produce this GPU's slice of the next buffer.
                const Region out = acts[l + 1].slice(g, params.numGpus);
                tb.sweep(g, out, /*per_page=*/14, /*write_prob=*/1.0);
                // Half of each slice is updated in place after its
                // consumer already read it (Section IV-A: 49 % of C2D
                // pages experience write-collapse followed by
                // re-duplication); the consumer then re-reads it.
                const unsigned consumer = (g + 1) % params.numGpus;
                const Region inplace = out.slice(0, 2);
                tb.sweep(consumer, inplace, /*per_page=*/10,
                         /*write_prob=*/0.0);
                tb.sweep(g, inplace, /*per_page=*/10, /*write_prob=*/1.0);
                tb.sweep(consumer, inplace, /*per_page=*/10,
                         /*write_prob=*/0.0);
            }
        }
    }
}

/**
 * FIR (Hetero-Mark): finite impulse response filter. Input and output
 * slices are entirely private per GPU (Fig. 4: ~100 % private), making
 * on-touch migration optimal; the 70 % memory oversubscription causes
 * spills whose re-migration dominates the other schemes.
 */
void
genFir(const WorkloadParams &params, std::uint64_t pages,
       TraceSink &sink)
{
    TraceBuilder tb(params.numGpus, params.seed ^ 0xF18ULL, sink);
    RegionAllocator ra;
    const Region input = ra.alloc(pages * 3 / 5);
    const Region output = ra.alloc(pages - input.pages);

    const unsigned passes = iters(3, params.intensity);
    for (unsigned pass = 0; pass < passes; ++pass) {
        for (unsigned g = 0; g < params.numGpus; ++g) {
            tb.sweep(g, input.slice(g, params.numGpus), /*per_page=*/24,
                     /*write_prob=*/0.0);
            tb.sweep(g, output.slice(g, params.numGpus), /*per_page=*/12,
                     /*write_prob=*/1.0);
        }
    }
}

/**
 * GEMM (AMDAPPSDK): the Section IV-C case study. Both input matrices
 * are read-shared by every GPU; the output matrix is written privately
 * in per-GPU slices. About half the pages are shared-read and half
 * private read-write, in large consecutive runs — ideal for
 * Neighboring-Aware Prediction.
 */
void
genGemm(const WorkloadParams &params, std::uint64_t pages,
        TraceSink &sink)
{
    TraceBuilder tb(params.numGpus, params.seed ^ 0x6E33ULL, sink);
    RegionAllocator ra;
    const Region a = ra.alloc(pages / 4);
    const Region b = ra.alloc(pages / 4);
    const Region c = ra.alloc(pages - a.pages - b.pages);

    // Tiled k-loop: every GPU eventually reads all of both inputs (so
    // the pages are shared-read), but per iteration each GPU works on
    // one rotating tile — the bounded working set of a real blocked
    // GEMM.
    const unsigned kTiles = 8;
    const unsigned kIters = iters(48, params.intensity);
    for (unsigned k = 0; k < kIters; ++k) {
        for (unsigned g = 0; g < params.numGpus; ++g) {
            const unsigned tile = (g + k) % kTiles;
            tb.sweep(g, a.slice(tile, kTiles), /*per_page=*/18,
                     /*write_prob=*/0.0);
            tb.sweep(g, b.slice((tile + k) % kTiles, kTiles),
                     /*per_page=*/18, /*write_prob=*/0.0);
            // Accumulate into this GPU's private output slice.
            const Region mine = c.slice(g, params.numGpus);
            tb.sweep(g, mine.slice(k % kTiles, kTiles), /*per_page=*/10,
                     /*write_prob=*/0.5);
        }
    }
}

/**
 * MM (AMDAPPSDK): matrix multiplication with a strided (scatter-gather)
 * inner access pattern over the shared inputs; otherwise GEMM-shaped.
 */
void
genMm(const WorkloadParams &params, std::uint64_t pages,
      TraceSink &sink)
{
    TraceBuilder tb(params.numGpus, params.seed ^ 0x3434ULL, sink);
    RegionAllocator ra;
    const Region a = ra.alloc(pages / 4);
    const Region b = ra.alloc(pages / 4);
    const Region c = ra.alloc(pages - a.pages - b.pages);

    const unsigned kTiles = 8;
    const unsigned kIters = iters(40, params.intensity);
    for (unsigned k = 0; k < kIters; ++k) {
        for (unsigned g = 0; g < params.numGpus; ++g) {
            const unsigned tile = (g + k) % kTiles;
            tb.sweep(g, a.slice(tile, kTiles), /*per_page=*/8,
                     /*write_prob=*/0.0);
            // Column gathers of B: strided scatter-gather reads over a
            // rotating tile.
            tb.stridedPass(g, b.slice((tile + 3 * k) % kTiles, kTiles),
                           /*start_offset=*/(g + k) % 4, /*stride=*/4,
                           /*per_page=*/24, /*write_prob=*/0.0);
            const Region mine = c.slice(g, params.numGpus);
            tb.sweep(g, mine.slice(k % kTiles, kTiles), /*per_page=*/8,
                     /*write_prob=*/0.5);
        }
    }
}

/**
 * SC (AMDAPPSDK): simple convolution. Like FIR, slices are private
 * (Fig. 4), but the kernel window re-reads input pages heavily and a
 * two-page halo is shared with the neighboring GPU.
 */
void
genSc(const WorkloadParams &params, std::uint64_t pages,
      TraceSink &sink)
{
    TraceBuilder tb(params.numGpus, params.seed ^ 0x5CULL, sink);
    RegionAllocator ra;
    const Region input = ra.alloc(pages * 7 / 10);
    const Region output = ra.alloc(pages - input.pages);

    const unsigned passes = iters(2, params.intensity);
    for (unsigned pass = 0; pass < passes; ++pass) {
        for (unsigned g = 0; g < params.numGpus; ++g) {
            const Region mine = input.slice(g, params.numGpus);
            tb.sweep(g, mine, /*per_page=*/30, /*write_prob=*/0.0);
            // Halo: the first two pages of the next slice.
            if (g + 1 < params.numGpus) {
                const Region next = input.slice(g + 1, params.numGpus);
                const std::uint64_t halo =
                    std::min<std::uint64_t>(2, next.pages);
                for (std::uint64_t i = 0; i < halo; ++i)
                    tb.touchLines(g, next.firstPage + i, 30, false);
            }
            tb.sweep(g, output.slice(g, params.numGpus), /*per_page=*/8,
                     /*write_prob=*/1.0);
        }
    }
}

/**
 * ST (SHOC): 2D stencil. Early iterations are read-only global sweeps
 * (Fig. 10: intervals 0-8 see only reads); afterwards slice ownership
 * rotates slowly across GPUs so nearly every page becomes read-write
 * shared (99 % per Section VI-A), alternating all-shared and
 * producer-consumer phases (Figs. 5(b) and 8).
 */
void
genSt(const WorkloadParams &params, std::uint64_t pages,
      TraceSink &sink)
{
    TraceBuilder tb(params.numGpus, params.seed ^ 0x57ULL, sink);
    RegionAllocator ra;
    const Region grid = ra.alloc(pages);

    const unsigned total = iters(30, params.intensity);
    const unsigned read_only = total / 4;
    for (unsigned t = 0; t < total; ++t) {
        for (unsigned g = 0; g < params.numGpus; ++g) {
            if (t < read_only) {
                // Initialization phase: rotating read-only slices (the
                // read-only intervals of Fig. 10), still shared over
                // time because the owner rotates.
                const Region ro = grid.slice((g + t) % params.numGpus,
                                             params.numGpus);
                tb.sweep(g, ro, /*per_page=*/6, /*write_prob=*/0.0);
                continue;
            }
            // Slice ownership rotates every five iterations.
            const unsigned owner_shift = (t - read_only) / 5;
            const unsigned slice = (g + owner_shift) % params.numGpus;
            const Region mine = grid.slice(slice, params.numGpus);
            tb.sweep(g, mine, /*per_page=*/6, /*write_prob=*/0.35);
            // Halo reads from the neighboring slice.
            const Region next =
                grid.slice((slice + 1) % params.numGpus, params.numGpus);
            const std::uint64_t halo =
                std::min<std::uint64_t>(3, next.pages);
            for (std::uint64_t i = 0; i < halo; ++i)
                tb.touchLines(g, next.firstPage + i, 8, false);
        }
    }
}

/**
 * VGG16 / ResNet18 model-parallel training (Section VI-F), layers
 * partitioned across GPUs. Each GPU owns a contiguous span of layers:
 * its weights and gradients are private read-write data, while the
 * activation (and activation-gradient) buffers at GPU boundaries are
 * producer-consumer shared between neighboring GPUs in the forward and
 * backward directions.
 */
void
genDnn(AppId model, const WorkloadParams &params,
       std::uint64_t footprint_pages, TraceSink &sink)
{
    // Scaled-down geometry: VGG16 is weight-heavy (large dense
    // layers), ResNet18 activation-heavy relative to its weights.
    const bool vgg = model == AppId::kVgg16;
    const unsigned layers = vgg ? 16 : 18;
    const double weight_ratio = vgg ? 2.0 : 1.5;  // weight:activation
    const unsigned shared_denominator = vgg ? 5 : 8;  // read-shared 1/N

    TraceBuilder tb(params.numGpus, params.seed ^ 0xD77ULL, sink);
    RegionAllocator ra;

    // Partition the footprint between weights (+gradients), the
    // inter-layer activation buffers, and a read-shared region
    // (normalization statistics, embedding tables, and the input batch
    // consulted by every pipeline stage).
    const std::uint64_t shared_pages = std::max<std::uint64_t>(
        8, footprint_pages / shared_denominator);
    const std::uint64_t rest = footprint_pages - shared_pages;
    const std::uint64_t act_pages = static_cast<std::uint64_t>(
        static_cast<double>(rest) / (1.0 + weight_ratio));
    const std::uint64_t weight_pages = rest - act_pages;

    const Region shared = ra.alloc(shared_pages);
    std::vector<Region> weights;   // one per layer, private to its GPU
    std::vector<Region> acts;      // boundaries between layers
    weights.reserve(layers);
    acts.reserve(layers + 1);
    for (unsigned l = 0; l < layers; ++l)
        weights.push_back(ra.alloc(std::max<std::uint64_t>(
            1, weight_pages / layers)));
    for (unsigned l = 0; l <= layers; ++l)
        acts.push_back(ra.alloc(std::max<std::uint64_t>(
            1, act_pages / (layers + 1))));

    auto gpu_of_layer = [&](unsigned layer) {
        return static_cast<unsigned>(std::uint64_t{layer} * params.numGpus /
                                     layers);
    };

    const unsigned batches = iters(8, params.intensity);
    for (unsigned b = 0; b < batches; ++b) {
        // Forward pass: read the incoming activation and the layer
        // weights, produce the outgoing activation. Every stage also
        // consults the read-shared region (input batch, normalization
        // statistics) — under GRIT those pages converge to duplication.
        for (unsigned l = 0; l < layers; ++l) {
            const unsigned g = gpu_of_layer(l);
            tb.sweep(g, acts[l], /*per_page=*/4, /*write_prob=*/0.0);
            tb.sweep(g, weights[l], /*per_page=*/3, /*write_prob=*/0.0);
            tb.sweep(g, shared, /*per_page=*/2, /*write_prob=*/0.0);
            tb.sweep(g, acts[l + 1], /*per_page=*/2, /*write_prob=*/1.0);
        }
        // Backward pass: read the stored activations, update the
        // weights (read-write), and push gradients back one layer.
        for (unsigned l = layers; l-- > 0;) {
            const unsigned g = gpu_of_layer(l);
            tb.sweep(g, acts[l + 1], /*per_page=*/2, /*write_prob=*/0.0);
            tb.sweep(g, weights[l], /*per_page=*/3, /*write_prob=*/0.5);
            tb.sweep(g, acts[l], /*per_page=*/2, /*write_prob=*/1.0);
        }
    }
}

}  // namespace

const AppMeta &
appMeta(AppId app)
{
    return kMeta[static_cast<unsigned>(app)];
}

std::optional<AppId>
appFromName(const std::string &name)
{
    std::string upper;
    upper.reserve(name.size());
    for (char c : name)
        upper.push_back(
            static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
    for (AppId app : kAllApps) {
        if (upper == appMeta(app).abbr)
            return app;
    }
    return std::nullopt;
}

Workload
workloadShell(AppId app, const WorkloadParams &params)
{
    assert(params.numGpus > 0);
    assert(params.footprintDivisor > 0);
    return shell(app, params);
}

void
generateTrace(AppId app, const WorkloadParams &params, TraceSink &sink)
{
    assert(params.numGpus > 0);
    assert(params.footprintDivisor > 0);
    const std::uint64_t pages = shell(app, params).footprintGenPages;
    switch (app) {
      case AppId::kBfs:  genBfs(params, pages, sink);  return;
      case AppId::kBs:   genBs(params, pages, sink);   return;
      case AppId::kC2d:  genC2d(params, pages, sink);  return;
      case AppId::kFir:  genFir(params, pages, sink);  return;
      case AppId::kGemm: genGemm(params, pages, sink); return;
      case AppId::kMm:   genMm(params, pages, sink);   return;
      case AppId::kSc:   genSc(params, pages, sink);   return;
      case AppId::kSt:   genSt(params, pages, sink);   return;
      case AppId::kVgg16:
      case AppId::kResNet18: genDnn(app, params, pages, sink); return;
    }
    assert(false && "unknown application");
}

Workload
makeWorkload(AppId app, const WorkloadParams &params)
{
    Workload w = workloadShell(app, params);
    VectorSink sink(params.numGpus);
    generateTrace(app, params, sink);
    w.traces = sink.take();
    return w;
}

}  // namespace grit::workload
