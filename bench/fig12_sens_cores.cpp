/**
 * @file
 * Figure 12 (sensitivity): core count. Gmean weighted speedup and max
 * slowdown of FR-FCFS / UBP / DBP at 4, 8 and 16 cores on the fixed
 * 32-bank machine (mixes truncated / repeated to fit). More cores per
 * bank stresses the equal partition (2 banks each at 16 cores) and
 * widens DBP's advantage.
 */

#include "bench_common.hh"

namespace {

using namespace dbpsim;
using namespace dbpsim::bench;

std::vector<MixSweep>
sweeps(const RunConfig &base)
{
    std::vector<MixSweep> out;
    for (unsigned cores : {4u, 8u, 16u}) {
        std::vector<WorkloadMix> mixes;
        for (const auto &mix : sensitivityMixes())
            mixes.push_back(scaleMix(mix, cores));
        const std::string label = std::to_string(cores);
        out.push_back({base, std::move(mixes),
                       {schemeByName("FR-FCFS"), schemeByName("UBP"),
                        schemeByName("DBP")},
                       label, label + "c/"});
    }
    return out;
}

void
render(CampaignRun &run, std::ostream &os)
{
    printWsMsGmeans(run, sweeps(run.config()), "cores", os);
}

const CampaignRegistrar reg({
    "fig12",
    "sensitivity to core count",
    "Expected shape: DBP's edge over UBP grows with core count as the "
    "equal share shrinks.\nNot reproduced at the default window: DBP's "
    "WS edge shrinks from +1.5 % at 4 cores (2.676 vs\n2.636) to "
    "+0.9 % at 8 (5.129 vs 5.085) and turns negative at 16 (7.281 vs "
    "7.403).",
    sweepPlan(sweeps),
    render,
});

} // namespace
