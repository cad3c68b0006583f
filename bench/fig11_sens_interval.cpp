/**
 * @file
 * Figure 11 (sensitivity): the profiling / repartitioning interval.
 * DBP gmean weighted speedup, max slowdown, adopted repartitions and
 * migrated pages at intervals from 125 k to 2 M CPU cycles. Too-short
 * intervals chase noise (migration overhead); too-long intervals
 * react slowly to phase changes (xalancbmk's phases flip every ~5 M
 * instructions).
 */

#include "bench_common.hh"

namespace {

using namespace dbpsim;
using namespace dbpsim::bench;

const std::vector<Cycle> &
intervals()
{
    static const std::vector<Cycle> v = {125'000, 250'000, 500'000,
                                         1'000'000, 2'000'000};
    return v;
}

std::string
prefixFor(Cycle interval)
{
    return std::to_string(interval) + "/";
}

void
plan(CampaignPlan &p, CampaignContext &ctx)
{
    for (Cycle interval : intervals()) {
        RunConfig cfg = ctx.config();
        cfg.base.profileIntervalCpu = interval;
        planMixSweep(p, cfg, prefixFor(interval), sensitivityMixes(),
                     {schemeByName("DBP")});
    }
}

void
render(CampaignRun &run, std::ostream &os)
{
    TextTable table({"interval (cpu cycles)", "gmean WS", "gmean MS",
                     "repartitions", "pages migrated"});
    for (Cycle interval : intervals()) {
        std::string prefix = prefixFor(interval);
        double reparts = 0, migrated = 0;
        for (const auto &mix : sensitivityMixes()) {
            const std::string k = sweepKey(prefix, mix.name, "DBP");
            reparts += run.num(k, "repartitions");
            migrated += run.num(k, "pages_migrated");
        }
        table.beginRow();
        table.cell(static_cast<std::uint64_t>(interval));
        table.cell(geomean(sweepColumn(run, prefix, sensitivityMixes(),
                                       "DBP", "ws")),
                   3);
        table.cell(geomean(sweepColumn(run, prefix, sensitivityMixes(),
                                       "DBP", "ms")),
                   3);
        table.cell(static_cast<std::uint64_t>(reparts));
        table.cell(static_cast<std::uint64_t>(migrated));
    }
    table.print(os);
}

const CampaignRegistrar reg({
    "fig11",
    "sensitivity to repartitioning interval",
    "Expected shape: WS roughly flat with a mild peak at mid "
    "intervals; migration volume falls as the\ninterval grows. "
    "Not reproduced at the default window: WS peaks at the shortest "
    "interval\n(5.149 at 125 k, 5.095 at 2 M), and pages migrated "
    "rise 350 -> 630 -> 1,027 -> 1,049 from 125 k to\n1 M cycles "
    "(none at 2 M, where no repartition fits).",
    plan,
    render,
});

} // namespace
