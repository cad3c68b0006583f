/**
 * @file
 * Figure 13 (sensitivity): channel count, at a fixed 32 total banks.
 * Gmean weighted speedup and max slowdown of FR-FCFS / DBP / MCP at
 * 1, 2 and 4 channels. MCP needs >= 2 channels to separate anything
 * and still concentrates intensive threads; DBP's bank-granular split
 * works at any channel count.
 */

#include "bench_common.hh"

namespace {

using namespace dbpsim;
using namespace dbpsim::bench;

std::vector<MixSweep>
sweeps(const RunConfig &base)
{
    // 1 x 2 x 16, 2 x 2 x 8 and 4 x 2 x 4: always 32 banks.
    std::vector<MixSweep> out;
    for (unsigned channels : {1u, 2u, 4u}) {
        RunConfig cfg = base;
        cfg.base.geometry.channels = channels;
        cfg.base.geometry.ranksPerChannel = 2;
        cfg.base.geometry.banksPerRank = 16 / channels;
        const std::string label = std::to_string(channels);
        out.push_back({cfg, sensitivityMixes(),
                       {schemeByName("FR-FCFS"), schemeByName("DBP"),
                        schemeByName("MCP")},
                       label, label + "ch/"});
    }
    return out;
}

void
render(CampaignRun &run, std::ostream &os)
{
    printWsMsGmeans(run, sweeps(run.config()), "channels", os);
}

const CampaignRegistrar reg({
    "fig13",
    "sensitivity to channel count",
    "Expected shape: DBP helps at every channel count; MCP only "
    "separates threads once there are >= 2 channels.",
    sweepPlan(sweeps),
    render,
});

} // namespace
