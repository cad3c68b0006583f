/**
 * @file
 * Watch Dynamic Bank Partitioning work: runs a mix under DBP and, at
 * every profiling interval, prints each thread's measured profile
 * (MPKI / shadow row-buffer hit rate / distinct-row parallelism) and
 * its current bank allocation, plus migration activity. Makes the
 * policy's decisions — light grouping, streamer donation, phase
 * adaptation — directly observable.
 *
 * Structured as a single-job campaign: the interval-by-interval trace
 * is captured as JSON (one entry per interval), rendered as the usual
 * tables, and optionally written with out=FILE for offline plotting.
 *
 * Usage: partition_explorer [mix=W04] [part=dbp] [sched=fr-fcfs]
 *        [intervals=12] [out=FILE] [key=value ...]
 */

#include <fstream>
#include <iostream>
#include <memory>

#include "common/config.hh"
#include "common/table.hh"
#include "sim/campaign.hh"

using namespace dbpsim;

namespace {

/** Step @p mix's machine under @p scheme over @p intervals profiling
 *  intervals. */
Json
explore(const RunConfig &rc, const WorkloadMix &mix, const Scheme &scheme,
        unsigned intervals)
{
    JobMachine machine = buildMixMachine(rc, mix, scheme);
    System &system = *machine.system;
    const SystemParams &params = system.params();

    Json trace = Json::array();
    std::uint64_t migrated_before = 0;
    std::uint64_t reparts_before = 0;
    for (unsigned i = 1; i <= intervals; ++i) {
        system.run(params.profileIntervalCpu);

        auto &mgr = system.partitionManager();
        std::uint64_t migrated =
            mgr.statPagesMigrated.value() - migrated_before;
        migrated_before = mgr.statPagesMigrated.value();
        bool repartitioned =
            mgr.statRepartitions.value() != reparts_before;
        reparts_before = mgr.statRepartitions.value();

        Json entry = Json::object();
        entry.set("cycle", system.cpuCycle());
        entry.set("repartitioned", repartitioned);
        entry.set("pages_migrated", migrated);

        const auto &profiles = system.lastIntervalProfiles();
        Json threads = Json::array();
        for (unsigned t = 0; t < params.numCores; ++t) {
            Json th = Json::object();
            th.set("app", mix.apps[t]);
            th.set("banks",
                   static_cast<std::uint64_t>(
                       system.osMemory()
                           .colorSet(static_cast<ThreadId>(t))
                           .size()));
            if (t < profiles.size()) {
                th.set("mpki", profiles[t].mpki);
                th.set("rb_hit", profiles[t].rowBufferHitRate);
                th.set("row_par", profiles[t].rowParallelism);
                th.set("footprint", profiles[t].footprintPages);
            }
            threads.push(std::move(th));
        }
        entry.set("threads", std::move(threads));
        trace.push(std::move(entry));
    }

    Json doc = Json::object();
    doc.set("intervals", std::move(trace));
    doc.set("repartitions",
            system.partitionManager().statRepartitions.value());
    doc.set("pages_migrated",
            system.partitionManager().statPagesMigrated.value());
    if (ProtocolChecker *pc = system.protocolChecker()) {
        pc->finalize(system.memCycle());
        doc.set("check_violations", pc->violations());
    }
    return doc;
}

void
renderTrace(const Json &trace, const WorkloadMix &mix, std::ostream &os)
{
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const Json &entry = trace.at(i);
        std::uint64_t migrated = entry.at("pages_migrated").asUInt();
        os << "\n-- interval " << (i + 1) << " (cycle "
           << entry.at("cycle").asUInt() << ")"
           << (entry.at("repartitioned").asBool()
                   ? "  ** REPARTITIONED **"
                   : "")
           << (migrated ? "  [" + std::to_string(migrated) +
                   " pages migrated]"
                        : "")
           << '\n';

        TextTable table({"app", "banks", "MPKI", "RB hit", "row par",
                         "footprint"});
        const Json &threads = entry.at("threads");
        for (std::size_t t = 0; t < mix.apps.size(); ++t) {
            const Json &th = threads.at(t);
            table.beginRow();
            table.cell(th.at("app").asString());
            table.cell(th.at("banks").asUInt());
            if (th.find("mpki")) {
                table.cell(th.at("mpki").asDouble(), 2);
                table.cell(th.at("rb_hit").asDouble(), 2);
                table.cell(th.at("row_par").asDouble(), 2);
                table.cell(th.at("footprint").asUInt());
            } else {
                table.cell("-");
                table.cell("-");
                table.cell("-");
                table.cell("-");
            }
        }
        table.print(os);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Config config;
    config.parseArgs(argc, argv);
    RunConfig rc = makeRunConfig(
        config, {"mix", "part", "sched", "intervals", "out"});

    const WorkloadMix &mix = mixByName(config.getString("mix", "W04"));
    // Watch DBP unless part= says otherwise. The scheme's name seeds
    // the traces.
    const Scheme scheme{"explore", config.getString("sched", "fr-fcfs"),
                        config.getString("part", "dbp")};
    unsigned intervals =
        static_cast<unsigned>(config.getUInt("intervals", 12));

    std::cout << "mix " << mix.name << " on " << mix.apps.size()
              << " cores, " << rc.base.summary()
              << "\nscheduler: " << scheme.scheduler
              << ", partition: " << scheme.partition
              << "\nprofiling interval: " << rc.base.profileIntervalCpu
              << " CPU cycles\n";

    CampaignSpec spec;
    spec.name = "partition_explorer";
    spec.title = "DBP decisions on " + mix.name;
    spec.plan = [&mix, &scheme, intervals](CampaignPlan &plan,
                                           CampaignContext &) {
        plan.add("trace", [mix, scheme, intervals](CampaignContext &ctx) {
            return explore(ctx.config(), mix, scheme, intervals);
        });
    };
    spec.render = [&mix](CampaignRun &run, std::ostream &os) {
        const Json &doc = run.job("trace");
        renderTrace(doc.at("intervals"), mix, os);
        os << "\ntotal: " << doc.at("repartitions").asUInt()
           << " repartitions, " << doc.at("pages_migrated").asUInt()
           << " pages migrated\n";
        if (const Json *v = doc.find("check_violations"))
            os << "protocol violations: " << v->asUInt() << "\n";
    };

    CampaignOptions opts;
    opts.jobs = 1;
    opts.progress = false;
    auto baselines = std::make_shared<AloneBaselineCache>();
    Json doc = runCampaign(spec, rc, baselines, opts, std::cout);

    const std::string out = config.getString("out", "");
    if (!out.empty()) {
        std::ofstream file(out);
        doc.write(file, 2);
        file << "\n";
        std::cout << "trace written to " << out << "\n";
    }
    return 0;
}
