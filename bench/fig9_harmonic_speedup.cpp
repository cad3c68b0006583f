/**
 * @file
 * Figure 9: harmonic mean of speedups — the balanced
 * throughput-and-fairness metric — for the six paper schemes over the
 * twelve mixes (gmean summary). DBP-TCM should lead: it wins on both
 * component metrics.
 */

#include "bench_common.hh"

namespace {

using namespace dbpsim;
using namespace dbpsim::bench;

std::vector<Scheme>
schemes()
{
    return {schemeByName("FR-FCFS"), schemeByName("UBP"),
            schemeByName("DBP"),     schemeByName("TCM"),
            schemeByName("DBP-TCM"), schemeByName("MCP")};
}

void
plan(CampaignPlan &p, CampaignContext &)
{
    planMixSweep(p, allMixes(), schemes());
}

void
render(CampaignRun &run, std::ostream &os)
{
    printSweepMetric(run, "", allMixes(), schemes(), "hs",
                     "harmonic speedup (higher = better balance)", os);
}

const CampaignRegistrar reg({
    "fig9",
    "harmonic speedup across schemes",
    "Expected shape: DBP-TCM leads the gmean row; FR-FCFS trails.\n"
    "Not reproduced at the default window: DBP leads (0.663, DBP-TCM "
    "0.652) and MCP trails (0.602,\nFR-FCFS 0.628).",
    plan,
    render,
});

} // namespace
