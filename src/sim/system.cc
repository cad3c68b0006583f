#include "sim/system.hh"

#include <cmath>
#include <ostream>

#include "common/log.hh"
#include "part/part_factory.hh"

namespace dbpsim {

System::System(const SystemParams &params,
               const std::vector<TraceSource *> &sources)
    : params_(params),
      map_(params.geometry, params.subarrayColoring)
{
    if (sources.size() != params_.numCores)
        fatal("system: ", params_.numCores, " cores but ",
              sources.size(), " trace sources");
    DBP_ASSERT(params_.cpuRatio > 0, "cpuRatio must be >= 1");

    DramTiming timing = params_.timing();

    if (params_.protocolCheck) {
        ProtocolCheckerParams cpp;
        cpp.failFast = params_.checkFailFast;
        cpp.refreshPostponeMax = params_.controller.refresh.postponeMax;
        cpp.expectRefresh =
            params_.controller.refresh.mode != RefreshMode::None;
        cpp.salp = params_.controller.salp;
        cpp.subarrayColoring = params_.subarrayColoring;
        checker_ = std::make_unique<ProtocolChecker>(
            params_.geometry, timing, params_.numCores, cpp);
    }

    os_ = std::make_unique<OsMemory>(map_, params_.numCores);
    if (checker_)
        os_->setPartitionObserver(checker_.get());
    profiler_ = std::make_unique<ThreadProfiler>(params_.numCores,
                                                 map_.numColors());

    SchedulerInit sinit = params_.sched;
    sinit.numThreads = params_.numCores;
    sinit.numColors = map_.numColors();
    sinit.burstCycles = timing.tBURST;
    scheduler_ = makeScheduler(params_.scheduler, sinit);

    ControllerParams cparams = params_.controller;
    cparams.numThreads = params_.numCores;
    std::vector<MemoryController *> raw_controllers;
    for (unsigned ch = 0; ch < params_.geometry.channels; ++ch) {
        controllers_.push_back(std::make_unique<MemoryController>(
            ch, map_, timing, cparams, scheduler_.get(),
            profiler_.get()));
        if (checker_)
            controllers_.back()->setCommandObserver(checker_.get());
        raw_controllers.push_back(controllers_.back().get());
    }

    PartitionInit pinit;
    pinit.numThreads = params_.numCores;
    pinit.geometry = params_.geometry;
    pinit.dbp = params_.dbp;
    pinit.mcp = params_.mcp;
    if (params_.subarrayColoring)
        pinit.coloredSubarrays = params_.geometry.subarraysPerBank;
    partMgr_ = std::make_unique<PartitionManager>(
        makePartitionPolicy(params_.partition, pinit), *os_,
        raw_controllers, map_, params_.partMgr);
    partMgr_->start();

    for (unsigned c = 0; c < params_.numCores; ++c) {
        cores_.push_back(std::make_unique<TraceCore>(
            static_cast<ThreadId>(c), params_.core, sources[c], this));
    }

    nextInterval_ = params_.profileIntervalCpu;
    intervalInstrBase_.assign(params_.numCores, 0);
}

bool
System::issueLoad(ThreadId tid, Addr vaddr, MemClient *client,
                  std::uint64_t tag)
{
    Addr paddr = os_->translate(tid, vaddr);
    DramCoord coord = map_.decode(paddr);
    MemoryController &mc = *controllers_.at(coord.channel);
    return mc.enqueueRead(paddr, tid, client, tag, memCycle_);
}

bool
System::issueStore(ThreadId tid, Addr vaddr)
{
    Addr paddr = os_->translate(tid, vaddr);
    DramCoord coord = map_.decode(paddr);
    MemoryController &mc = *controllers_.at(coord.channel);
    return mc.enqueueWrite(paddr, tid, memCycle_);
}

void
System::intervalBoundary()
{
    std::vector<std::uint64_t> instrs(params_.numCores, 0);
    std::vector<std::uint64_t> footprint(params_.numCores, 0);
    for (unsigned c = 0; c < params_.numCores; ++c) {
        InstCount total = cores_[c]->instructionsRetired();
        instrs[c] = total - intervalInstrBase_[c];
        intervalInstrBase_[c] = total;
        footprint[c] = os_->mappedPages(static_cast<ThreadId>(c));
    }

    lastProfiles_ = profiler_->closeInterval(instrs, footprint);
    scheduler_->onIntervalProfiles(lastProfiles_);
    partMgr_->onInterval(lastProfiles_, memCycle_);
}

void
System::tickCpu()
{
    for (auto &core : cores_)
        core->tick();

    // Memory domain ticks once per cpuRatio CPU cycles.
    if (cpuCycle_ % params_.cpuRatio == 0) {
        scheduler_->tick(memCycle_);
        for (auto &mc : controllers_)
            mc->tick(memCycle_);
        profiler_->tick();

        // Charge any lazily migrated pages to the involved banks.
        auto moves = os_->drainLazyMoves();
        if (!moves.empty())
            partMgr_->applyLazyMoves(moves, memCycle_);
        ++memCycle_;
    }

    ++cpuCycle_;
    if (cpuCycle_ >= nextInterval_) {
        intervalBoundary();
        nextInterval_ += params_.profileIntervalCpu;
    }
}

void
System::run(Cycle cpu_cycles)
{
    for (Cycle i = 0; i < cpu_cycles; ++i)
        tickCpu();
}

std::vector<InstCount>
System::instructionSnapshot() const
{
    std::vector<InstCount> out;
    out.reserve(cores_.size());
    for (const auto &core : cores_)
        out.push_back(core->instructionsRetired());
    return out;
}

std::vector<double>
System::runAndMeasure(Cycle warmup_cpu, Cycle measure_cpu)
{
    DBP_ASSERT(measure_cpu > 0, "measurement window must be > 0");
    run(warmup_cpu);
    std::vector<InstCount> before = instructionSnapshot();
    run(measure_cpu);
    std::vector<InstCount> after = instructionSnapshot();

    std::vector<double> ipc(cores_.size());
    for (std::size_t c = 0; c < cores_.size(); ++c)
        ipc[c] = static_cast<double>(after[c] - before[c]) /
            static_cast<double>(measure_cpu);
    return ipc;
}

void
System::dumpStats(std::ostream &os) const
{
    os << "sim.cpu_cycles                   " << cpuCycle_ << '\n';
    os << "sim.mem_cycles                   " << memCycle_ << '\n';

    for (unsigned c = 0; c < controllers_.size(); ++c) {
        const MemoryController &mc = *controllers_[c];
        std::string prefix = "mem" + std::to_string(c);
        StatGroup g(prefix);
        g.addScalar("reads_enqueued", &mc.statReadsEnqueued);
        g.addScalar("writes_enqueued", &mc.statWritesEnqueued);
        g.addScalar("write_forwards", &mc.statWriteForwards);
        g.addScalar("write_coalesced", &mc.statWriteCoalesced);
        g.addScalar("read_queue_full", &mc.statReadQueueFull);
        g.addScalar("write_queue_full", &mc.statWriteQueueFull);
        g.addScalar("dram_activates", &mc.channel().statActs);
        g.addScalar("dram_precharges", &mc.channel().statPrecharges);
        g.addScalar("dram_reads", &mc.channel().statReads);
        g.addScalar("dram_writes", &mc.channel().statWrites);
        g.addScalar("dram_refreshes", &mc.channel().statRefreshes);
        g.addScalar("dram_refreshes_pb", &mc.channel().statRefreshesPb);
        g.addScalar("dram_sasels", &mc.channel().statSaSels);
        g.dump(os);
    }

    for (unsigned t = 0; t < cores_.size(); ++t) {
        const TraceCore &core = *cores_[t];
        StatGroup g("core" + std::to_string(t));
        g.addScalar("loads", &core.statLoads);
        g.addScalar("stores", &core.statStores);
        g.addScalar("mshr_merges", &core.statMshrMerges);
        g.addScalar("head_stalls", &core.statHeadStalls);
        g.addScalar("mshr_stalls", &core.statMshrStalls);
        g.addScalar("store_stalls", &core.statStoreStalls);
        g.dump(os);
        os << "core" << t << ".instructions                    "
           << core.instructionsRetired() << '\n';
    }

    {
        StatGroup g("os");
        g.addScalar("frames_allocated", &os_->allocator().statAllocs);
        g.addScalar("frames_released", &os_->allocator().statReleases);
        g.addScalar("fallback_allocs",
                    &os_->allocator().statFallbackAllocs);
        g.addScalar("pages_migrated", &os_->statMigratedPages);
        g.dump(os);
    }
    {
        StatGroup g("part");
        g.addScalar("repartitions", &partMgr_->statRepartitions);
        g.addScalar("pages_migrated", &partMgr_->statPagesMigrated);
        g.dump(os);
    }
    if (checker_) {
        StatGroup g("check");
        checker_->addStats(g);
        g.dump(os);
    }
}

double
System::threadRowHitRate(ThreadId tid) const
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    for (const auto &mc : controllers_) {
        const auto &ts = mc->threadStats(tid);
        hits += ts.rowHits;
        misses += ts.rowMisses;
    }
    std::uint64_t total = hits + misses;
    return total == 0
        ? 0.0
        : static_cast<double>(hits) / static_cast<double>(total);
}

double
System::threadReadLatencyPercentile(ThreadId tid, double p) const
{
    DBP_ASSERT(p > 0.0 && p <= 1.0, "percentile out of (0,1]");
    const StatHistogram &ref =
        controllers_.front()->latencyHistogram(tid);
    std::size_t buckets = ref.bucketCount();
    double width = ref.bucketWidth();

    std::vector<std::uint64_t> merged(buckets + 1, 0);
    std::uint64_t total = 0;
    for (const auto &mc : controllers_) {
        const StatHistogram &h = mc->latencyHistogram(tid);
        for (std::size_t b = 0; b < buckets; ++b)
            merged[b] += h.bucket(b);
        merged[buckets] += h.overflow();
        total += h.count();
    }
    if (total == 0)
        return 0.0;

    auto target = static_cast<std::uint64_t>(
        std::ceil(p * static_cast<double>(total)));
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b <= buckets; ++b) {
        seen += merged[b];
        if (seen >= target)
            return (static_cast<double>(std::min(b, buckets - 1)) + 1) *
                width;
    }
    return static_cast<double>(buckets) * width;
}

double
System::threadAvgReadLatency(ThreadId tid) const
{
    std::uint64_t sum = 0;
    std::uint64_t count = 0;
    for (const auto &mc : controllers_) {
        const auto &ts = mc->threadStats(tid);
        sum += ts.readLatencySum;
        count += ts.readsCompleted;
    }
    return count == 0
        ? 0.0
        : static_cast<double>(sum) / static_cast<double>(count);
}

} // namespace dbpsim
