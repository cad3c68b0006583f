#include "sim/experiment.hh"

#include "trace/spec_profiles.hh"

namespace dbpsim {

namespace {

JobMachine
assemble(const SystemParams &params,
         std::vector<std::unique_ptr<TraceSource>> sources)
{
    std::vector<TraceSource *> raw;
    raw.reserve(sources.size());
    for (auto &s : sources)
        raw.push_back(s.get());
    JobMachine m;
    m.sources = std::move(sources);
    m.system = std::make_unique<System>(params, raw);
    return m;
}

} // namespace

JobMachine
buildMixMachine(const RunConfig &rc, const WorkloadMix &mix,
                const Scheme &scheme)
{
    SystemParams params = applyScheme(rc.base, scheme);
    params.numCores = static_cast<unsigned>(mix.apps.size());
    return assemble(params,
                    buildMixSources(mix, jobSeed(rc.seedBase, mix.name,
                                                 scheme.name)));
}

JobMachine
buildAloneMachine(const RunConfig &rc, const std::string &app)
{
    SystemParams params = rc.base;
    params.numCores = 1;
    params.scheduler = "fr-fcfs";
    params.partition = "none";
    // One profiling interval covering exactly the full run, closed
    // explicitly at the end, so the alone profile summarizes the whole
    // execution.
    params.profileIntervalCpu = rc.warmupCpu + rc.measureCpu +
        1'000'000'000ULL;
    std::vector<std::unique_ptr<TraceSource>> sources;
    sources.push_back(makeSpecSource(app, rc.seedBase * 31 + 7));
    return assemble(params, std::move(sources));
}

MixResult
runMixJob(const RunConfig &rc, const WorkloadMix &mix,
          const Scheme &scheme, AloneBaselineCache &baselines)
{
    JobMachine machine = buildMixMachine(rc, mix, scheme);
    System &system = *machine.system;
    std::vector<double> shared = system.runAndMeasure(rc.warmupCpu,
                                                      rc.measureCpu);
    requireMeasuredIpc(rc, mix.name + "/" + scheme.name, mix.apps, shared);

    MixResult result;
    result.mixName = mix.name;
    result.schemeName = scheme.name;
    result.sharedIpc = shared;
    for (const auto &app : mix.apps)
        result.aloneIpc.push_back(baselines.get(rc, app).ipc);
    result.metrics = computeMetrics(result.aloneIpc, result.sharedIpc);

    for (unsigned t = 0; t < system.params().numCores; ++t) {
        auto tid = static_cast<ThreadId>(t);
        result.rowHitRate.push_back(system.threadRowHitRate(tid));
        result.readLatency.push_back(system.threadAvgReadLatency(tid));
        result.readLatencyP50.push_back(
            system.threadReadLatencyPercentile(tid, 0.5));
        result.readLatencyP95.push_back(
            system.threadReadLatencyPercentile(tid, 0.95));
    }
    for (unsigned c = 0; c < system.numControllers(); ++c) {
        const DramChannel &ch = system.controllerAt(c).channel();
        result.activates += ch.statActs.value();
        result.requests += ch.statReads.value() + ch.statWrites.value();
        const DramEnergyBreakdown e = dramEnergy(ch, system.memCycle());
        result.energy.actPreNj += e.actPreNj;
        result.energy.readNj += e.readNj;
        result.energy.writeNj += e.writeNj;
        result.energy.refreshNj += e.refreshNj;
        result.energy.backgroundNj += e.backgroundNj;
    }
    result.pagesMigrated =
        system.partitionManager().statPagesMigrated.value();
    result.repartitions =
        system.partitionManager().statRepartitions.value();
    if (ProtocolChecker *pc = system.protocolChecker()) {
        pc->finalize(system.memCycle());
        result.checkViolations =
            static_cast<std::int64_t>(pc->violations());
    }
    return result;
}

} // namespace dbpsim
