/**
 * @file
 * Figure 5 (headline, claim C1 fairness): maximum slowdown (lower is
 * fairer) of FR-FCFS, UBP and DBP over the twelve standard mixes. The
 * paper reports DBP improving fairness by 16 % gmean over UBP.
 */

#include "bench_common.hh"

namespace {

using namespace dbpsim;
using namespace dbpsim::bench;

MixSweep
sweep(const RunConfig &rc)
{
    return {rc, standardMixes(),
            {schemeByName("FR-FCFS"), schemeByName("UBP"),
             schemeByName("DBP")}};
}

void
render(CampaignRun &run, std::ostream &os)
{
    const MixSweep s = sweep(run.config());
    printSweepMetric(run, s, "ms", "maximum slowdown (lower = fairer)",
                     os);

    // Fairness improvement = reduction in max slowdown.
    double gain = pctDrop(sweepGmean(run, s, "UBP", "ms"),
                          sweepGmean(run, s, "DBP", "ms"));
    run.summary("gmean_fairness_gain_dbp_vs_ubp_pct", gain);
    os << "DBP vs UBP gmean fairness gain: " << formatDouble(gain, 2)
       << " %  (paper: +16 %)\n";
}

const CampaignRegistrar reg({
    "fig5",
    "maximum slowdown: FR-FCFS vs UBP vs DBP",
    "Expected shape: DBP's max slowdown below UBP's on most mixes "
    "(positive fairness gain).",
    sweepPlan(sweep),
    render,
});

} // namespace
