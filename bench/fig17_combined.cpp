/**
 * @file
 * Figure 17 (extension): composing channel- and bank-granular
 * partitioning. Weighted speedup and max slowdown of MCP, DBP,
 * DBP-MCP (channel groups split bank-wise inside) and DBP-MCP-TCM
 * over the sensitivity mixes — the "comprehensive approach" direction
 * the paper's discussion points toward, evaluated beyond its own
 * scheme set.
 */

#include "bench_common.hh"

namespace {

using namespace dbpsim;
using namespace dbpsim::bench;

std::vector<Scheme>
schemes()
{
    return {schemeByName("MCP"), schemeByName("DBP"),
            schemeByName("DBP-MCP"), schemeByName("DBP-TCM"),
            schemeByName("DBP-MCP-TCM")};
}

void
plan(CampaignPlan &p, CampaignContext &)
{
    planMixSweep(p, sensitivityMixes(), schemes());
}

void
render(CampaignRun &run, std::ostream &os)
{
    printSweepMetric(run, "", sensitivityMixes(), schemes(), "ws",
                     "weighted speedup", os);
    printSweepMetric(run, "", sensitivityMixes(), schemes(), "ms",
                     "maximum slowdown (lower = fairer)", os);
}

const CampaignRegistrar reg({
    "fig17",
    "channel+bank partitioning composition",
    "Expected shape: the composed schemes at or above their "
    "components on both metrics.\nNot reproduced at the default "
    "window: DBP-MCP has WS 4.838 / MS 2.779 against DBP's 5.129 /\n"
    "2.028 and MCP's 5.046 / 2.295; DBP-MCP-TCM has 4.812 / 2.899 "
    "against DBP-TCM's 5.072 / 2.128.",
    plan,
    render,
});

} // namespace
