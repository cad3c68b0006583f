#include "traced_system.hh"

#include <algorithm>
#include <deque>

#include "common/log.hh"
#include "part/part_factory.hh"
#include "sim/system.hh"

namespace hostbench {

using namespace dbpsim;

void
addCounts(Counts &into, const Counts &from)
{
    for (const auto &[k, v] : from)
        into[k] += v;
}

ChannelCounts
channelCounts(const DramChannel &ch)
{
    return {ch.statActs.value(),      ch.statPrecharges.value(),
            ch.statReads.value(),     ch.statWrites.value(),
            ch.statRefreshes.value(), ch.statRefreshesPb.value(),
            ch.statSaSels.value()};
}

SystemParams
jobParams(const RunConfig &rc, const WorkloadMix &mix, const Scheme &scheme)
{
    SystemParams params = applyScheme(rc.base, scheme);
    params.numCores = static_cast<unsigned>(mix.apps.size());
    return params;
}

std::vector<std::unique_ptr<TraceSource>>
jobSources(const RunConfig &rc, const WorkloadMix &mix, const Scheme &scheme)
{
    return buildMixSources(mix, jobSeed(rc.seedBase, mix.name, scheme.name));
}

std::vector<TraceSource *>
rawSources(const std::vector<std::unique_ptr<TraceSource>> &owned)
{
    std::vector<TraceSource *> raw;
    for (const auto &s : owned)
        raw.push_back(s.get());
    return raw;
}

namespace {

/** Forwarding scheduler that counts priority comparisons. */
class CountingScheduler final : public Scheduler
{
  public:
    explicit CountingScheduler(std::unique_ptr<Scheduler> inner)
        : inner_(std::move(inner))
    {
    }

    std::string name() const override { return inner_->name(); }

    bool
    higherPriority(const MemRequest &a, const MemRequest &b,
                   const SchedContext &ctx) const override
    {
        ++compares;
        return inner_->higherPriority(a, b, ctx);
    }

    void tick(Cycle now) override { inner_->tick(now); }
    void onEnqueue(MemRequest &req) override { inner_->onEnqueue(req); }
    void
    onDequeue(const MemRequest &req) override
    {
        inner_->onDequeue(req);
    }
    void
    onComplete(const MemRequest &req, Cycle now) override
    {
        inner_->onComplete(req, now);
    }
    void
    onIntervalProfiles(const std::vector<ThreadMemProfile> &p) override
    {
        inner_->onIntervalProfiles(p);
    }
    void
    attachQueueView(QueueView *view) override
    {
        inner_->attachQueueView(view);
    }

    mutable std::uint64_t compares = 0;

  private:
    std::unique_ptr<Scheduler> inner_;
};

/**
 * Forwarding trace source that reads ahead of its core, so the trace
 * layer is timed once per cycle (refill()) instead of once per record.
 * The core sees exactly the records, in order, the wrapped source
 * would have given it.
 */
class PrefetchSource final : public TraceSource
{
  public:
    PrefetchSource(TraceSource &inner, std::size_t depth)
        : inner_(inner), depth_(depth)
    {
    }

    /** Top the buffer up to its depth. */
    void
    refill()
    {
        while (buf_.size() < depth_)
            buf_.push_back(inner_.next());
    }

    TraceRecord
    next() override
    {
        ++delivered;
        if (buf_.empty())
            return inner_.next();
        TraceRecord r = buf_.front();
        buf_.pop_front();
        return r;
    }

    void
    reset() override
    {
        inner_.reset();
        buf_.clear();
    }

    std::string name() const override { return inner_.name(); }

    std::uint64_t delivered = 0;

  private:
    TraceSource &inner_;
    std::size_t depth_;
    std::deque<TraceRecord> buf_;
};

/** Clamped span duration with the clock's own cost removed. */
std::int64_t
spanNs(std::int64_t t0, std::int64_t t1)
{
    return std::max<std::int64_t>(0, t1 - t0 - clockOverheadNs());
}

/** Runs @p f, timing it when @p times samples this call of @p l. */
template <class F>
auto
sampled(LayerTimes &times, Layer l, F &&f)
{
    if (!times.sampleCall(l))
        return f();
    std::int64_t t0 = nowNs();
    auto r = f();
    times.addSample(l, spanNs(t0, nowNs()));
    return r;
}

/** Forwarding command observer that counts and times the checker. */
class TimedObserver final : public CommandObserver
{
  public:
    TimedObserver(CommandObserver &inner, LayerTimes &times)
        : inner_(inner), times_(times)
    {
    }

    void
    onCommand(const CmdEvent &ev) override
    {
        sampled(times_, Layer::CheckOnCommand, [&] {
            inner_.onCommand(ev);
            return 0;
        });
    }

  private:
    CommandObserver &inner_;
    LayerTimes &times_;
};

/**
 * dbpsim::System, re-assembled: the same components built in the same
 * order with the same arguments, ticked in the same order. Private
 * caches are not modelled (no benchmark workload enables them).
 */
class TracedSystem final : public CoreMemoryInterface
{
  public:
    TracedSystem(const SystemParams &params,
                 const std::vector<TraceSource *> &sources, SpanLog &log,
                 std::uint32_t job, std::int64_t root)
        : params_(params),
          map_(params.geometry, params.scheme, params.bankXor,
               params.subarrayColoring),
          log_(log), job_(job), root_(root)
    {
        if (params_.cacheEnabled)
            fatal("hostbench: the traced system has no private caches");
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
            observer_ = std::make_unique<TimedObserver>(*checker_, times_);
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
        scheduler_ = std::make_unique<CountingScheduler>(
            makeScheduler(params_.scheduler, sinit));

        ControllerParams cparams = params_.controller;
        cparams.numThreads = params_.numCores;
        std::vector<MemoryController *> raw_controllers;
        for (unsigned ch = 0; ch < params_.geometry.channels; ++ch) {
            controllers_.push_back(std::make_unique<MemoryController>(
                ch, map_, timing, cparams, scheduler_.get(),
                profiler_.get()));
            if (observer_)
                controllers_.back()->setCommandObserver(observer_.get());
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
            // One cycle fetches at most windowSize records.
            sources_.push_back(std::make_unique<PrefetchSource>(
                *sources.at(c), params_.core.windowSize));
            cores_.push_back(std::make_unique<TraceCore>(
                static_cast<ThreadId>(c), params_.core,
                sources_.back().get(), this));
        }

        nextInterval_ = params_.profileIntervalCpu;
        intervalInstrBase_.assign(params_.numCores, 0);
    }

    bool
    issueLoad(ThreadId tid, Addr vaddr, MemClient *client,
              std::uint64_t tag) override
    {
        Addr paddr = translate(tid, vaddr);
        MemoryController &mc =
            *controllers_.at(map_.decode(paddr).channel);
        return sampled(times_, Layer::MemEnqueue, [&] {
            return mc.enqueueRead(paddr, tid, client, tag, memCycle_);
        });
    }

    bool
    issueStore(ThreadId tid, Addr vaddr) override
    {
        Addr paddr = translate(tid, vaddr);
        MemoryController &mc =
            *controllers_.at(map_.decode(paddr).channel);
        return sampled(times_, Layer::MemEnqueue, [&] {
            return mc.enqueueWrite(paddr, tid, memCycle_);
        });
    }

    std::vector<double>
    runAndMeasure(Cycle warmup_cpu, Cycle measure_cpu)
    {
        std::int64_t t0 = nowNs();
        runPhase("warmup", warmup_cpu);
        std::vector<InstCount> before = snapshot();
        runPhase("measure", measure_cpu);
        std::vector<InstCount> after = snapshot();
        runNs_ = nowNs() - t0;

        std::vector<double> ipc(cores_.size());
        for (std::size_t c = 0; c < cores_.size(); ++c)
            ipc[c] = static_cast<double>(after[c] - before[c]) /
                static_cast<double>(measure_cpu);
        return ipc;
    }

    /** Finalize the checker and collect the run into @p out. */
    void
    finish(TracedRun &out)
    {
        Counts &n = out.counts;
        double cores = static_cast<double>(cores_.size());
        n["cpu_cycles"] = static_cast<double>(cpuCycle_);
        n["mem_cycles"] = static_cast<double>(memCycle_);
        n["core.cycles"] = cores * static_cast<double>(cpuCycle_);
        for (const auto &core : cores_) {
            n["core.instructions"] +=
                static_cast<double>(core->instructionsRetired());
            n["core.loads"] += static_cast<double>(core->statLoads.value());
            n["core.mshr_merges"] +=
                static_cast<double>(core->statMshrMerges.value());
            n["core.head_stalls"] +=
                static_cast<double>(core->statHeadStalls.value());
        }
        for (const auto &s : sources_)
            n["trace.records"] += static_cast<double>(s->delivered);

        n["os.frames_allocated"] =
            static_cast<double>(os_->allocator().statAllocs.value());
        n["os.pages_migrated"] =
            static_cast<double>(os_->statMigratedPages.value());
        n["os.fallback_allocs"] = static_cast<double>(
            os_->allocator().statFallbackAllocs.value());

        n["mem.controller_ticks"] = static_cast<double>(ctrlTicks_);
        n["mem.idle_ticks"] = static_cast<double>(idleTicks_);
        n["mem.read_q_depth_sum"] = static_cast<double>(readQDepthSum_);
        n["mem.sched.compares"] =
            static_cast<double>(scheduler_->compares);
        for (const auto &mc : controllers_) {
            n["mem.queue_full"] +=
                static_cast<double>(mc->statReadQueueFull.value() +
                                    mc->statWriteQueueFull.value());
            for (unsigned t = 0; t < params_.numCores; ++t) {
                const auto &ts = mc->threadStats(static_cast<ThreadId>(t));
                n["mem.row_hits"] += static_cast<double>(ts.rowHits);
                n["mem.row_misses"] += static_cast<double>(ts.rowMisses);
                n["mem.read_latency_sum"] +=
                    static_cast<double>(ts.readLatencySum);
                n["mem.reads_completed"] +=
                    static_cast<double>(ts.readsCompleted);
            }
            ChannelCounts cc = channelCounts(mc->channel());
            out.channels.push_back(cc);
            n["dram.act"] += static_cast<double>(cc.act);
            n["dram.pre"] += static_cast<double>(cc.pre);
            n["dram.rd"] += static_cast<double>(cc.rd);
            n["dram.wr"] += static_cast<double>(cc.wr);
            n["dram.ref"] += static_cast<double>(cc.ref);
            n["dram.refpb"] += static_cast<double>(cc.refpb);
            n["dram.sa_sel"] += static_cast<double>(cc.sasel);
        }

        n["part.repartitions"] =
            static_cast<double>(partMgr_->statRepartitions.value());
        n["part.pages_migrated"] =
            static_cast<double>(partMgr_->statPagesMigrated.value());

        n["check.commands"] = 0.0;
        n["check.violations"] = 0.0;
        if (checker_) {
            checker_->finalize(memCycle_);
            n["check.commands"] =
                static_cast<double>(checker_->commandsChecked());
            n["check.violations"] =
                static_cast<double>(checker_->violations());
        }
        out.times = times_;
        out.runNs = runNs_;
    }

  private:
    Addr
    translate(ThreadId tid, Addr vaddr)
    {
        return sampled(times_, Layer::OsTranslate,
                       [&] { return os_->translate(tid, vaddr); });
    }

    std::vector<InstCount>
    snapshot() const
    {
        std::vector<InstCount> out;
        for (const auto &core : cores_)
            out.push_back(core->instructionsRetired());
        return out;
    }

    void
    runPhase(const char *name, Cycle cycles)
    {
        phase_ = log_.begin(job_, name, root_);
        for (Cycle i = 0; i < cycles; ++i)
            tickCpu();
        log_.end(phase_);
    }

    /** System::tickCpu with one timer pair per layer. */
    void
    tickCpu()
    {
        std::int64_t t0 = nowNs();
        for (auto &s : sources_)
            s->refill();
        std::int64_t t1 = nowNs();
        for (auto &core : cores_)
            core->tick();
        std::int64_t t2 = nowNs();
        times_.add(Layer::Trace, spanNs(t0, t1));
        times_.add(Layer::Core, spanNs(t1, t2));

        if (cpuCycle_ % params_.cpuRatio == 0) {
            scheduler_->tick(memCycle_);
            std::int64_t t3 = nowNs();
            for (const auto &mc : controllers_) {
                idleTicks_ += mc->pendingRequests() == 0;
                readQDepthSum_ += mc->readQueueDepth();
            }
            ctrlTicks_ += controllers_.size();
            std::int64_t t4 = nowNs();
            for (auto &mc : controllers_)
                mc->tick(memCycle_);
            std::int64_t t5 = nowNs();
            profiler_->tick();
            std::int64_t t6 = nowNs();
            auto moves = os_->drainLazyMoves();
            if (!moves.empty())
                partMgr_->applyLazyMoves(moves, memCycle_);
            std::int64_t t7 = nowNs();
            times_.add(Layer::Sched, spanNs(t2, t3));
            times_.add(Layer::Controller, spanNs(t4, t5));
            times_.add(Layer::Profiler, spanNs(t5, t6));
            times_.add(Layer::Part, spanNs(t6, t7));
            ++memCycle_;
        }

        ++cpuCycle_;
        if (cpuCycle_ >= nextInterval_) {
            intervalBoundary();
            nextInterval_ += params_.profileIntervalCpu;
        }
    }

    /** System::intervalBoundary, one span per consumer. */
    void
    intervalBoundary()
    {
        std::int64_t span = log_.begin(job_, "interval", phase_);
        std::vector<std::uint64_t> instrs(params_.numCores, 0);
        std::vector<std::uint64_t> footprint(params_.numCores, 0);
        for (unsigned c = 0; c < params_.numCores; ++c) {
            InstCount total = cores_[c]->instructionsRetired();
            instrs[c] = total - intervalInstrBase_[c];
            intervalInstrBase_[c] = total;
            footprint[c] = os_->mappedPages(static_cast<ThreadId>(c));
        }

        std::int64_t t0 = nowNs();
        lastProfiles_ = profiler_->closeInterval(instrs, footprint);
        std::int64_t t1 = nowNs();
        scheduler_->onIntervalProfiles(lastProfiles_);
        std::int64_t t2 = nowNs();
        partMgr_->onInterval(lastProfiles_, memCycle_);
        std::int64_t t3 = nowNs();
        times_.add(Layer::Profiler, spanNs(t0, t1));
        times_.add(Layer::Sched, spanNs(t1, t2));
        times_.add(Layer::Part, spanNs(t2, t3));
        log_.end(span);
    }

    SystemParams params_;
    AddressMap map_;
    SpanLog &log_;
    std::uint32_t job_;
    std::int64_t root_;
    std::int64_t phase_ = -1;
    LayerTimes times_;

    std::unique_ptr<ProtocolChecker> checker_;
    std::unique_ptr<TimedObserver> observer_;
    std::unique_ptr<OsMemory> os_;
    std::unique_ptr<ThreadProfiler> profiler_;
    std::unique_ptr<CountingScheduler> scheduler_;
    std::vector<std::unique_ptr<MemoryController>> controllers_;
    std::unique_ptr<PartitionManager> partMgr_;
    std::vector<std::unique_ptr<PrefetchSource>> sources_;
    std::vector<std::unique_ptr<TraceCore>> cores_;

    Cycle cpuCycle_ = 0;
    Cycle memCycle_ = 0;
    Cycle nextInterval_ = 0;
    std::vector<InstCount> intervalInstrBase_;
    std::vector<ThreadMemProfile> lastProfiles_;

    std::uint64_t ctrlTicks_ = 0;
    std::uint64_t idleTicks_ = 0;
    std::uint64_t readQDepthSum_ = 0;
    std::int64_t runNs_ = 0;
};

} // namespace

TracedRun
runTracedJob(const RunConfig &rc, const WorkloadMix &mix,
             const Scheme &scheme, SpanLog &log, std::uint32_t job)
{
    std::int64_t t0 = nowNs();
    std::int64_t root = log.begin(job, mix.name + "/" + scheme.name, -1);
    auto owned = jobSources(rc, mix, scheme);
    TracedRun out;
    {
        TracedSystem sys(jobParams(rc, mix, scheme), rawSources(owned), log,
                         job, root);
        out.ipc = sys.runAndMeasure(rc.warmupCpu, rc.measureCpu);
        sys.finish(out);
    }
    log.end(root);
    log.addLayerTotals(job, out.times);
    out.wallNs = nowNs() - t0;
    return out;
}

JobRun
runPlainJob(const RunConfig &rc, const WorkloadMix &mix,
            const Scheme &scheme)
{
    std::int64_t t0 = nowNs();
    auto owned = jobSources(rc, mix, scheme);
    JobRun out;
    {
        System sys(jobParams(rc, mix, scheme), rawSources(owned));
        out.ipc = sys.runAndMeasure(rc.warmupCpu, rc.measureCpu);
        for (unsigned c = 0; c < sys.numControllers(); ++c)
            out.channels.push_back(
                channelCounts(sys.controllerAt(c).channel()));
    }
    out.wallNs = nowNs() - t0;
    return out;
}

std::string
fidelityMismatch(const JobRun &traced, const JobRun &plain)
{
    if (traced.ipc != plain.ipc)
        return "per-thread IPCs differ";
    if (traced.channels != plain.channels)
        return "per-channel DRAM command counts differ";
    return "";
}

} // namespace hostbench
