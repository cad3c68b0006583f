/**
 * @file
 * Figure 10 (sensitivity): total bank count. UBP/DBP/FR-FCFS gmean
 * weighted speedup and max slowdown at 16 / 32 / 64 banks (varying
 * banks per rank at fixed 2 channels x 2 ranks). With few banks the
 * equal share binds hard and DBP's gains grow; with many banks every
 * thread has parallelism to spare and the schemes converge.
 */

#include "bench_common.hh"

namespace {

using namespace dbpsim;
using namespace dbpsim::bench;

std::vector<MixSweep>
sweeps(const RunConfig &base)
{
    std::vector<MixSweep> out;
    for (unsigned banks_per_rank : {4u, 8u, 16u}) {
        RunConfig cfg = base;
        cfg.base.geometry.banksPerRank = banks_per_rank;
        const std::string banks =
            std::to_string(cfg.base.geometry.totalBanks());
        out.push_back({cfg, sensitivityMixes(),
                       {schemeByName("FR-FCFS"), schemeByName("UBP"),
                        schemeByName("DBP")},
                       banks, banks + "bk/"});
    }
    return out;
}

void
render(CampaignRun &run, std::ostream &os)
{
    printWsMsGmeans(run, sweeps(run.config()), "banks", os);
}

const CampaignRegistrar reg({
    "fig10",
    "sensitivity to bank count",
    "Expected shape: DBP's edge over UBP largest at 16 banks, "
    "shrinking at 64.",
    sweepPlan(sweeps),
    render,
});

} // namespace
