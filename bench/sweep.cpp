/**
 * @file
 * `dbpsim_bench sweep`: schemes compared on one mix, with per-thread
 * slowdowns. An ad-hoc campaign, not registered, so --all and the
 * golden pins leave it out. Its keys, accepted only when sweep is
 * named: mix= (a standard mix, default W04) or apps= (a custom mix
 * named "custom", one core per application), and schemes= (standard
 * schemes by name) or, without it, every scheduler with partition
 * none as "<scheduler>+none", crossed with every partition policy
 * under cross=1.
 */

#include "bench_common.hh"
#include "common/log.hh"
#include "mem/sched_factory.hh"
#include "part/part_factory.hh"
#include "trace/spec_profiles.hh"

namespace dbpsim {
namespace bench {

const std::vector<std::string> &
sweepKeys()
{
    static const std::vector<std::string> keys{"mix", "apps", "schemes",
                                               "cross"};
    return keys;
}

CampaignSpec
sweepCampaign(const Config &cfg)
{
    WorkloadMix mix{"custom", cfg.getList("apps")};
    if (!cfg.has("apps"))
        mix = mixByName(cfg.getString("mix", "W04"));
    else if (cfg.has("mix"))
        fatal("sweep: give mix= or apps=, not both");
    for (const auto &app : mix.apps)
        if (!hasSpecProfile(app))
            fatal("unknown app '", app,
                  "'; dbpsim_bench tab2 lists the profile library");

    std::vector<Scheme> schemes;
    for (const auto &name : cfg.getList("schemes"))
        schemes.push_back(schemeByName(name));
    if (cfg.has("schemes") && cfg.has("cross"))
        fatal("sweep: cross= crosses the scheduler grid that schemes= "
              "replaces");
    if (!cfg.has("schemes")) {
        const std::vector<std::string> parts =
            cfg.getBool("cross", false) ? partitionPolicyNames()
                                        : std::vector<std::string>{"none"};
        for (const auto &sched : schedulerNames())
            for (const auto &part : parts)
                schemes.push_back({sched + "+" + part, sched, part});
    }
    if (mix.apps.empty() || schemes.empty())
        fatal("sweep: apps= and schemes= need at least one entry");

    CampaignSpec spec;
    spec.name = "sweep";
    spec.title = "schemes on " + mix.name + " (" +
        formatDouble(100 * mix.intensiveFraction(), 0) + " % intensive)";
    auto sweep = [mix, schemes](const RunConfig &rc) {
        return MixSweep{rc, {mix}, schemes};
    };
    spec.plan = [sweep](CampaignPlan &plan, CampaignContext &ctx) {
        planMixSweep(plan, sweep(ctx.config()));
    };
    spec.render = [sweep, mix](CampaignRun &run, std::ostream &os) {
        const MixSweep sw = sweep(run.config());
        TextTable summary({"scheme", "scheduler", "partition",
                           "weighted speedup", "max slowdown",
                           "harmonic speedup", "pages migrated"});
        // Per-thread slowdowns: one row per scheme, one column per core.
        std::vector<std::string> headers{"slowdown"};
        headers.insert(headers.end(), mix.apps.begin(), mix.apps.end());
        TextTable detail(headers);
        auto row = [&detail](const std::string &label, const Json &v) {
            detail.beginRow();
            detail.cell(label);
            for (std::size_t t = 0; t < v.size(); ++t)
                detail.cell(v.at(t).asDouble());
        };
        row("alone IPC", sweepJob(run, sw, mix.name, sw.schemes[0].name)
                             .at("alone_ipc"));
        for (const auto &s : sw.schemes) {
            const Json &job = sweepJob(run, sw, mix.name, s.name);
            summary.beginRow();
            summary.cell(s.name);
            summary.cell(s.scheduler);
            summary.cell(s.partition);
            summary.cell(job.at("ws").asDouble());
            summary.cell(job.at("ms").asDouble());
            summary.cell(job.at("hs").asDouble());
            summary.cell(job.at("pages_migrated").asUInt());
            row(s.name, job.at("slowdowns"));
        }
        summary.print(os);
        os << '\n';
        detail.print(os);
    };
    return spec;
}

} // namespace bench
} // namespace dbpsim
