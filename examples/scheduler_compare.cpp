/**
 * @file
 * Sweep every memory scheduler (optionally crossed with every
 * partition policy) over one workload mix — a quick interactive view
 * of the scheduling landscape the paper's orthogonality argument
 * builds on. Built as an ad-hoc (unregistered) campaign, so the grid
 * points run in parallel and land in deterministic slots.
 *
 * Usage:
 *   scheduler_compare                  # W04, partition fixed to none
 *   scheduler_compare mix=W10 cross=1  # full scheduler x partition grid
 *   scheduler_compare jobs=8           # worker threads (default: hw)
 */

#include <iostream>
#include <limits>
#include <memory>

#include "common/config.hh"
#include "common/log.hh"
#include "common/table.hh"
#include "mem/sched_factory.hh"
#include "part/part_factory.hh"
#include "sim/campaign.hh"

using namespace dbpsim;

int
main(int argc, char **argv)
{
    Config config;
    config.parseArgs(argc, argv);
    RunConfig rc =
        makeRunConfig(config, {"mix", "cross", "jobs", "progress"});

    const WorkloadMix &mix = mixByName(config.getString("mix", "W04"));
    rc.base.numCores = static_cast<unsigned>(mix.apps.size());
    bool cross = config.getBool("cross", false);

    std::cout << "mix " << mix.name << " on " << rc.base.summary()
              << "\n\n";

    const std::vector<std::string> parts =
        cross ? partitionPolicyNames()
              : std::vector<std::string>{"none"};

    CampaignSpec spec;
    spec.name = "scheduler_compare";
    spec.title = "scheduler x partition on " + mix.name;
    spec.plan = [&mix, &parts](CampaignPlan &plan, CampaignContext &) {
        for (const auto &sched : schedulerNames()) {
            for (const auto &part : parts) {
                Scheme scheme{sched + "+" + part, sched, part};
                plan.add(scheme.name,
                         [mix, scheme](CampaignContext &ctx) {
                             return mixResultToJson(
                                 ctx.runMix(mix, scheme));
                         });
            }
        }
    };
    spec.render = [&parts](CampaignRun &run, std::ostream &os) {
        TextTable table({"scheduler", "partition", "weighted speedup",
                         "max slowdown", "harmonic speedup"});
        for (const auto &sched : schedulerNames()) {
            for (const auto &part : parts) {
                const std::string key = sched + "+" + part;
                table.beginRow();
                table.cell(sched);
                table.cell(part);
                table.cell(run.num(key, "ws"));
                table.cell(run.num(key, "ms"));
                table.cell(run.num(key, "hs"));
            }
        }
        table.print(os);
    };

    CampaignOptions opts;
    const std::uint64_t jobs = config.getUInt("jobs", 0);
    if (jobs > std::numeric_limits<unsigned>::max())
        fatal("value ", jobs, " for key jobs is out of range (max ",
              std::numeric_limits<unsigned>::max(), ")");
    opts.jobs = static_cast<unsigned>(jobs);
    opts.progress = config.getBool("progress", true);
    auto baselines = std::make_shared<AloneBaselineCache>();
    runCampaign(spec, rc, baselines, opts, std::cout);

    std::cout << "\nSchedulers reorder service; partitions remove "
                 "inter-thread bank conflicts. The best cell combines "
                 "both.\n";
    return 0;
}
