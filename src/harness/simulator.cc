#include "harness/simulator.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <string>

#include "baselines/gps.h"
#include "baselines/griffin.h"
#include "policy/uniform.h"

namespace grit::harness {

namespace {

/**
 * Cap on inline access continuations per event (batchAccesses): keeps
 * cancel/watchdog checks — which run between events — responsive even
 * when one lane could legally run the whole drain tail inline.
 */
constexpr unsigned kMaxInlineBurst = 64;

/** Event-limit safety valve (kEventLimit): 16 × (accesses + 1024). */
constexpr std::uint64_t kEventsPerAccessLimit = 16;
constexpr std::uint64_t kEventLimitSlack = 1024;

/** Liveness watchdog (kNoProgress): events at one simulated cycle. */
constexpr std::uint64_t kWatchdogSameCycleEvents = 2'000'000;

/** Audit findings a result keeps (audit.violations counts them all). */
constexpr std::size_t kMaxAuditFindings = 32;

/** Compute gap between a lane's consecutive accesses. */
constexpr sim::Cycle kLaneIssueInterval = 8;

/** The placement policy @p config names, built on @p driver. */
std::unique_ptr<policy::PlacementPolicy>
makePolicy(const SystemConfig &config, uvm::UvmDriver &driver)
{
    const auto uniform = [&driver](const policy::UniformRule &rule) {
        return std::make_unique<policy::UniformPolicy>(driver, rule);
    };
    switch (config.policy) {
      case PolicyKind::kOnTouch:
        return uniform(policy::kOnTouchRule);
      case PolicyKind::kAccessCounter:
        return uniform(policy::kAccessCounterRule);
      case PolicyKind::kDuplication:
        return uniform(policy::kDuplicationRule);
      case PolicyKind::kFirstTouch:
        return uniform(policy::kFirstTouchRule);
      case PolicyKind::kIdeal:
        return uniform(policy::kIdealRule);
      case PolicyKind::kGrit:
        return std::make_unique<core::GritPolicy>(driver, config.grit);
      case PolicyKind::kGriffinDpc:
        return std::make_unique<baselines::GriffinDpcPolicy>(driver);
      case PolicyKind::kGps:
        return std::make_unique<baselines::GpsPolicy>(driver);
    }
    return uniform(policy::kOnTouchRule);
}

}  // namespace

std::optional<sim::SimError>
watchdogStop(const SystemConfig &config,
             std::chrono::steady_clock::time_point started)
{
    if (config.cancelFlag != nullptr) {
        const int sig = config.cancelFlag->load(std::memory_order_relaxed);
        if (sig != 0)
            return sim::SimError(sim::ErrorCode::kInterrupted,
                                 "cooperative cancel requested (signal " +
                                     std::to_string(sig) + ")");
    }
    if (config.wallDeadlineSec > 0.0) {
        const double elapsed = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - started)
                                   .count();
        if (elapsed > config.wallDeadlineSec)
            return sim::SimError(sim::ErrorCode::kDeadline,
                                 "wall-clock deadline (" +
                                     std::to_string(config.wallDeadlineSec) +
                                     " s) exceeded");
    }
    return std::nullopt;
}

double
RunResult::oversubscriptionRate() const
{
    if (accesses == 0)
        return 0.0;
    return 1000.0 * static_cast<double>(evictions) /
           static_cast<double>(accesses);
}

Simulator::Simulator(const SystemConfig &config,
                     workload::StreamedWorkload workload)
    : config_(config), workload_(std::move(workload))
{
    sim::throwIfInvalid(config_.validate(), "SystemConfig");
    const std::size_t workload_gpus = workload_.streams.size();
    if (workload_gpus != config_.numGpus) {
        throw sim::SimException(sim::SimError(
            sim::ErrorCode::kConfigInvalid,
            "workload was generated for " +
                std::to_string(workload_gpus) +
                " GPUs but the config expects " +
                std::to_string(config_.numGpus),
            "workload " + workload_.meta.name));
    }

    // Byte addresses decode into (page, line) at the configured base
    // page size as accesses are issued (nextAccess); large-page studies
    // reuse 4 KB-generated traces unchanged. validate() guarantees a
    // power-of-two base size that is a multiple of the line size, so
    // the decode is a shift and a mask.
    const std::uint64_t page_size = config_.geometry.baseSize;
    pageShift_ = static_cast<unsigned>(std::countr_zero(page_size));
    lineMask_ = config_.geometry.linesPerBase() - 1;
    cursors_.resize(config_.numGpus);
    for (unsigned g = 0; g < config_.numGpus; ++g) {
        GpuCursor &cur = cursors_[g];
        cur.stream = workload_.streams[g].get();
        cur.total = workload_.accesses[g];
        totalAccesses_ += cur.total;
    }

    // Per-GPU DRAM capacity: memoryFraction of the footprint, split
    // evenly (Table I's 70 % oversubscription model).
    gpu::GpuConfig gpu_config;
    gpu_config.counterThreshold = config_.counterThreshold;
    if (config_.memoryFraction > 0.0) {
        const std::uint64_t footprint_pages =
            (workload_.meta.footprintBytes() + page_size - 1) / page_size;
        const double per_gpu = config_.memoryFraction *
                               static_cast<double>(footprint_pages) /
                               config_.numGpus;
        gpu_config.dramCapacityPages =
            std::max<std::uint64_t>(8, static_cast<std::uint64_t>(per_gpu));
    }

    fabric_ = std::make_unique<ic::Topology>(config_.topology,
                                             config_.numGpus);

    // The geometry is passed down by reference: config_ is a member
    // declared first (destroyed last), so the referent outlives every
    // GPU and the driver.
    std::vector<gpu::Gpu *> gpu_views;
    for (unsigned g = 0; g < config_.numGpus; ++g) {
        gpus_.push_back(std::make_unique<gpu::Gpu>(
            static_cast<sim::GpuId>(g), gpu_config, config_.geometry));
        gpu_views.push_back(gpus_.back().get());
    }

    driver_ = std::make_unique<uvm::UvmDriver>(config_.uvm, *fabric_,
                                               gpu_views, stats_,
                                               breakdown_,
                                               config_.geometry);

    policy_ = makePolicy(config_, *driver_);
    driver_->setPolicy(policy_.get());

    if (config_.chaos.any()) {
        injector_ = std::make_unique<sim::FaultInjector>(config_.chaos);
        fabric_->setInjector(injector_.get());
        driver_->setInjector(injector_.get());
    }
    if (config_.audit)
        auditor_ = std::make_unique<sim::InvariantAuditor>(*driver_,
                                                          config_.policy);

    if (config_.timelineIntervalCycles > 0) {
        timeline_.emplace(config_.timelineIntervalCycles,
                          stats::kTimelineKinds);
        driver_->setTimeline(&*timeline_);
    }
    if (config_.trace != nullptr) {
        driver_->setTrace(config_.trace);
        fabric_->setTrace(config_.trace);
        for (auto &g : gpus_)
            g->setTrace(config_.trace);
    }

    if (config_.prefetch) {
        baselines::PrefetcherConfig pf;
        // Keep the 64 KB-block / 2 MB-root geometry under any page size.
        pf.pagesPerBlock = std::max<unsigned>(
            1, static_cast<unsigned>(sim::kCounterGroupBytes / page_size));
        prefetcher_ =
            std::make_unique<baselines::TreePrefetcher>(*driver_, pf);
    }
}

Simulator::~Simulator() = default;

bool
Simulator::drained() const
{
    for (const GpuCursor &cur : cursors_) {
        if (cur.pos < cur.total)
            return false;
    }
    return true;
}

bool
Simulator::nextAccess(unsigned g, LaneAccess &out)
{
    GpuCursor &cur = cursors_[g];
    if (cur.pos >= cur.total)
        return false;
    if (cur.chunk == nullptr || cur.chunkPos >= cur.chunk->accesses.size()) {
        cur.chunk = cur.stream->next();
        cur.chunkPos = 0;
        if (cur.chunk == nullptr)
            return false;  // stream ended short of its count
    }
    const workload::Access a = cur.chunk->accesses[cur.chunkPos++];
    ++cur.pos;
    out.page = a.addr >> pageShift_;
    out.line = static_cast<unsigned>((a.addr / sim::kLineSize) & lineMask_);
    out.write = a.write;
    return true;
}

void
Simulator::pressureStorm()
{
    const sim::Cycle now = queue_.now();
    for (unsigned g = 0; g < config_.numGpus; ++g) {
        // The driver notes the evictions with the injector itself.
        driver_->injectCapacityPressure(static_cast<sim::GpuId>(g),
                                        config_.chaos.pressure.pages,
                                        now);
    }
    if (!drained()) {
        queue_.schedule(now + config_.chaos.pressure.period,
                        [this] { pressureStorm(); }, "chaos-pressure");
    }
}

void
Simulator::promoteStorm()
{
    const sim::Cycle now = queue_.now();
    const unsigned splintered = driver_->splinterAllPromoted(now);
    if (splintered > 0 && injector_)
        injector_->notePromoteSplinters(splintered);
    if (!drained()) {
        queue_.schedule(now + config_.chaos.promoteStorm.period,
                        [this] { promoteStorm(); }, "chaos-promostorm");
    }
}

void
Simulator::hangSpin()
{
    // Deliberate livelock (chaos `hang:at=N`): every event reschedules
    // itself at the same cycle, so simulated time never advances and
    // only a watchdog (liveness, deadline, cancel) can stop the run.
    queue_.schedule(queue_.now(), [this] { hangSpin(); }, "chaos-hang");
}

bool
Simulator::canInline(sim::Cycle next_at) const
{
    // Strict `<`: the queue runs same-cycle events in FIFO order, so an
    // already-pending event with timestamp == next_at would execute
    // before the continuation. Inlining is only exact when nothing else
    // could run first.
    return config_.batchAccesses &&
           (queue_.empty() || next_at < queue_.nextWhen());
}

void
Simulator::runLane(unsigned g, unsigned lane, sim::Cycle now)
{
    for (unsigned burst = 0;; ++burst) {
        LaneAccess access;
        if (!nextAccess(g, access))
            return;  // this GPU has drained; the lane retires
        accessesCtr_.inc();
        const std::optional<sim::Cycle> done =
            beginAccess(g, lane, access, 0, now);
        if (!done)
            return;  // faulted; the replay event owns this lane now
        const sim::Cycle next_at = *done + kLaneIssueInterval;
        if (burst + 1 >= kMaxInlineBurst || !canInline(next_at)) {
            queue_.schedule(
                next_at,
                [this, g, lane] { runLane(g, lane, queue_.now()); },
                "lane-step");
            return;
        }
        accessesBatched_ += 1;
        now = next_at;
    }
}

std::optional<sim::Cycle>
Simulator::beginAccess(unsigned g, unsigned lane, const LaneAccess &a,
                       unsigned attempt, sim::Cycle now)
{
    gpu::Gpu &gpu = *gpus_[g];

    if (attempt > 0) {
        // Fault replay: the GMMU replays the access with the
        // translation the fault response delivered. If the page moved
        // again in the meantime the replay still completes against the
        // data's current location (one fault episode per access — the
        // coalesced replay of real fault handling).
        const mem::PteRecord *rec = gpu.pageTable().find(a.page);
        sim::GpuId loc;
        if (rec != nullptr && rec->pte.valid()) {
            loc = rec->location();
            gpu.fillTlbs(lane, a.page);
        } else {
            loc = driver_->directory().ownerOf(a.page);
            staleReplaysCtr_.inc();
        }
        const sim::Cycle done = finishAccess(g, now, loc, a);
        finish_ = std::max(finish_, done);
        return done;
    }

    const gpu::TranslateOutcome out =
        gpu.translate(lane, a.page, a.write, now);
    breakdown_.add(stats::LatencyKind::kLocal, out.walkCycles);

    // Fig. 19 accounting: scheme governing accesses that miss the L2
    // TLB (walkCycles > 0 implies an L2 TLB miss occurred).
    if (out.walkCycles > 0 || out.fault || out.protectionFault) {
        const unsigned s =
            static_cast<unsigned>(policy_->schemeOf(a.page));
        schemeAccesses_[s] += 1;
    }

    if (out.fault || out.protectionFault) {
        const uvm::FaultOutcome fo = driver_->handleFault(
            static_cast<sim::GpuId>(g), a.page, a.write,
            out.protectionFault, out.readyAt);
        peakReplicas_ = std::max(peakReplicas_,
                                 driver_->directory().totalReplicas());
        sim::Cycle replay_at = fo.completion;
        if (!fo.coalesced) {
            // The pending fault holds a GMMU fault-queue slot for its
            // whole lifetime; slot exhaustion throttles the GPU.
            replay_at = gpu.faultSlot(out.readyAt,
                                      fo.completion - out.readyAt);
        }
        // The replay is a fresh event so every resource it touches
        // sees monotonic timestamps. Once it completes, the lane may
        // continue inline under the same exactness guard — fault-storm
        // phases (every other lane parked at a far-future replay time)
        // are exactly where batching pays off.
        const LaneAccess access = a;
        queue_.schedule(
            replay_at,
            [this, g, lane, access] {
                const sim::Cycle done = *beginAccess(
                    g, lane, access, 1, queue_.now());
                const sim::Cycle next_at = done + kLaneIssueInterval;
                if (canInline(next_at)) {
                    accessesBatched_ += 1;
                    runLane(g, lane, next_at);
                } else {
                    queue_.schedule(next_at,
                                    [this, g, lane] {
                                        runLane(g, lane, queue_.now());
                                    },
                                    "lane-step");
                }
            },
            "fault-replay");
        return std::nullopt;
    }

    const sim::GpuId loc = out.rec != nullptr
                               ? out.rec->location()
                               : static_cast<sim::GpuId>(g);
    const sim::Cycle done = finishAccess(g, out.readyAt, loc, a);
    finish_ = std::max(finish_, done);
    return done;
}

sim::Cycle
Simulator::finishAccess(unsigned g, sim::Cycle ready, sim::GpuId loc,
                        const LaneAccess &a)
{
    gpu::Gpu &gpu = *gpus_[g];
    sim::Cycle t = ready;

    const unsigned lines_per_page = gpu.linesPerPage();
    const std::uint64_t line_id =
        a.page * lines_per_page + a.line;
    const bool remote = loc != static_cast<sim::GpuId>(g);

    if (a.write)
        driver_->directory().info(a.page).setDirty(true);

    // Remote data is not cached in the local L2 (baseline NUMA GPUs do
    // not cache remote memory — that is CARVE's contribution, not the
    // baseline), so every remote touch crosses the fabric.
    if (!remote && gpu.cacheAccess(line_id)) {
        t += gpu::kL2CacheLatency;
    } else {
        if (!remote) {
            t = gpu.dramAccess(t, sim::kLineSize);
        } else {
            const sim::Cycle before = t;
            // Occupy fabric bandwidth for utilization accounting (off
            // the latency path — a 64 B line is far below link rate).
            if (a.write)
                fabric_->transfer(t, static_cast<sim::GpuId>(g), loc,
                                  sim::kLineSize);
            else
                fabric_->transfer(t, loc, static_cast<sim::GpuId>(g),
                                  sim::kLineSize);
            // The transaction's pure flight time: fabric latency plus
            // the remote DRAM access. It holds an outstanding-remote
            // slot for that whole flight; slot exhaustion bounds remote
            // throughput in a way MLP cannot hide.
            sim::Cycle flight =
                fabric_->flightLatency(static_cast<sim::GpuId>(g), loc) +
                gpu::kDramLatency;
            if (loc >= 0)
                gpus_[static_cast<unsigned>(loc)]->dramAccess(
                    t, sim::kLineSize);
            t = gpu.remoteSlot(before, flight,
                               /*to_host=*/loc == sim::kHostId);
            breakdown_.add(stats::LatencyKind::kRemoteAccess, t - before);
            remoteAccessesCtr_.inc();
            if (timeline_)
                timeline_->record(
                    before,
                    static_cast<unsigned>(
                        stats::TimelineKind::kRemoteAccess));

            // Hardware access counters (64 KB groups, threshold 256).
            if (policy_->countsRemote(a.page) &&
                gpu.counters().recordRemoteAccess(a.page)) {
                t = std::max(t, driver_->counterMigration(
                                    static_cast<sim::GpuId>(g), a.page,
                                    t));
            }
        }
    }

    t += policy_->onAccess(static_cast<sim::GpuId>(g), a.page, a.write,
                           remote, t);
    return t;
}

RunResult
Simulator::run(bool salvage_partial,
               std::chrono::steady_clock::time_point started)
{
    // Seed every lane of every GPU.
    for (unsigned g = 0; g < config_.numGpus; ++g) {
        const unsigned lanes = std::min<std::uint64_t>(
            gpus_[g]->lanes(), cursors_[g].total);
        for (unsigned lane = 0; lane < lanes; ++lane)
            queue_.schedule(
                0,
                [this, g, lane] { runLane(g, lane, queue_.now()); },
                "lane-seed");
    }

    if (injector_ && injector_->pressureConfigured()) {
        queue_.schedule(config_.chaos.pressure.start +
                            config_.chaos.pressure.period,
                        [this] { pressureStorm(); }, "chaos-pressure");
    }
    if (injector_ && injector_->promoteStormConfigured() &&
        driver_->regionTracker().enabled()) {
        queue_.schedule(config_.chaos.promoteStorm.start +
                            config_.chaos.promoteStorm.period,
                        [this] { promoteStorm(); }, "chaos-promostorm");
    }
    if (injector_ && config_.chaos.hang.at != sim::ChaosSpec::kNever) {
        queue_.schedule(config_.chaos.hang.at, [this] { hangSpin(); },
                        "chaos-hang");
    }

    std::uint64_t limit =
        kEventsPerAccessLimit * (totalAccesses_ + kEventLimitSlack);
    bool budget_binding = false;
    if (config_.eventBudget != 0 && config_.eventBudget < limit) {
        limit = config_.eventBudget;
        budget_binding = true;
    }
    if (config_.wallDeadlineSec > 0.0 || config_.cancelFlag != nullptr) {
        queue_.setCancelCheck(
            [this, started]() -> std::optional<sim::SimError> {
                std::optional<sim::SimError> stop =
                    watchdogStop(config_, started);
                if (stop)
                    stop->message += " at cycle " +
                                     std::to_string(queue_.now());
                return stop;
            });
    }
    queue_.setWatchdog(kWatchdogSameCycleEvents);
    const std::uint64_t events_executed = queue_.run(limit);
    std::optional<sim::SimError> truncated;
    if (queue_.diagnostic()) {
        sim::SimError err = *queue_.diagnostic();
        if (budget_binding && err.code == sim::ErrorCode::kEventLimit) {
            // The binding limit was the per-run budget, not the global
            // safety valve: report it as a watchdog timeout.
            err.code = sim::ErrorCode::kDeadline;
            err.message = "event budget (" +
                          std::to_string(config_.eventBudget) +
                          ") exhausted at cycle " +
                          std::to_string(queue_.now());
        }
        err.context = "workload " + workload_.meta.name;
        if (!salvage_partial)
            throw sim::SimException(err);
        truncated = std::move(err);
    }

    RunResult result;
    // Skip the end-of-run audit on truncated runs: mid-flight state
    // (migrations in progress) legitimately violates quiescent
    // invariants and would drown the real diagnostic.
    if (auditor_ && !truncated) {
        for (const sim::SimError &err : auditor_->audit()) {
            if (result.auditFindings.size() < kMaxAuditFindings)
                result.auditFindings.push_back(err.str());
        }
    }
    result.eventsExecuted = events_executed;
    result.accessesBatched = accessesBatched_;
    result.cycles = finish_;
    result.accesses = stats_.get("sim.accesses");
    result.localFaults = stats_.get("uvm.local_faults");
    result.protectionFaults = stats_.get("uvm.protection_faults");
    result.breakdown = breakdown_;
    result.schemeAccesses = schemeAccesses_;
    result.peakReplicas = peakReplicas_;
    stats_.counter("uvm.server_queue_delay")
        .inc(driver_->serverQueueDelay());
    for (const auto &g : gpus_) {
        result.evictions += g->dram().evictions();
        stats_.counter("gmmu.walk_queue_delay")
            .inc(g->gmmu().walkQueueDelay());
        stats_.counter("gmmu.walks").inc(g->gmmu().walks());
        stats_.counter("gpu.flushes").inc(g->flushes());
    }
    if (injector_) {
        for (const auto &[name, value] : injector_->counters())
            stats_.counter(name).inc(value);
    }
    if (auditor_) {
        stats_.counter("audit.audits").inc(auditor_->audits());
        stats_.counter("audit.violations").inc(auditor_->violations());
    }
    const mem::RegionTracker &regions = driver_->regionTracker();
    if (regions.enabled() || config_.pageSizeStats) {
        // Lifetime promote/splinter story. The reconciliation invariant
        // (audited by InvariantAuditor::auditRegions) is visible right
        // in the counters: promote.regions - splinter.regions ==
        // promote.live_regions == sum of per-GPU huge mappings.
        stats_.counter("promote.regions").inc(regions.promotions());
        stats_.counter("promote.pages").inc(regions.promotedPages());
        stats_.counter("promote.live_regions")
            .inc(regions.promotedCount());
        stats_.counter("splinter.regions").inc(regions.splinters());
        stats_.counter("splinter.write_sharing")
            .inc(regions.splintersBy(mem::SplinterReason::kWriteSharing));
        stats_.counter("splinter.evictions")
            .inc(regions.splintersBy(mem::SplinterReason::kEviction));
        stats_.counter("splinter.chaos")
            .inc(regions.splintersBy(mem::SplinterReason::kChaos));
    }
    if (config_.pageSizeStats) {
        // Opt-in translation accounting (docs/PAGESIZE.md): aggregate
        // TLB and walk-cache hit/miss totals across GPUs, the numbers
        // the fig_pagesize walk-reduction claim is made from.
        std::uint64_t l1h = 0, l1m = 0, l2h = 0, l2m = 0;
        std::uint64_t pwch = 0, pwcm = 0;
        for (const auto &g : gpus_) {
            for (const mem::Tlb &tlb : g->l1Tlbs()) {
                l1h += tlb.hits();
                l1m += tlb.misses();
            }
            l2h += g->l2Tlb().hits();
            l2m += g->l2Tlb().misses();
            pwch += g->gmmu().walkCache().hits();
            pwcm += g->gmmu().walkCache().misses();
        }
        stats_.counter("tlb.l1_hits").inc(l1h);
        stats_.counter("tlb.l1_misses").inc(l1m);
        stats_.counter("tlb.l2_hits").inc(l2h);
        stats_.counter("tlb.l2_misses").inc(l2m);
        stats_.counter("pwc.hits").inc(pwch);
        stats_.counter("pwc.misses").inc(pwcm);
    }
    if (config_.fabricStats) {
        // Opt-in per-link fabric accounting (docs/TOPOLOGY.md): the
        // aggregates plus every link's bytes/busy-cycles. Counter names
        // embed the topology's deterministic link names, so the counter
        // set itself documents the routed fabric.
        stats_.counter("fabric.nvlink_bytes").inc(fabric_->nvlinkBytes());
        stats_.counter("fabric.pcie_bytes").inc(fabric_->pcieBytes());
        stats_.counter("fabric.messages").inc(fabric_->messages());
        stats_.counter("fabric.message_bytes")
            .inc(fabric_->messageBytes());
        for (const ic::LinkStat &link : fabric_->linkStats()) {
            stats_.counter("fabric." + link.name + ".bytes")
                .inc(link.bytes);
            stats_.counter("fabric." + link.name + ".busy_cycles")
                .inc(link.busyCycles);
        }
    }
    result.counters = stats_.items();
    result.timeline = timeline_;
    if (truncated) {
        result.partial = true;
        result.error = std::move(truncated);
    }
    return result;
}

}  // namespace grit::harness
