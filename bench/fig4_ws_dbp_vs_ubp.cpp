/**
 * @file
 * Figure 4 (headline, claim C1 throughput): weighted speedup of
 * FR-FCFS, equal bank partitioning (UBP) and Dynamic Bank Partitioning
 * (DBP) over the twelve standard mixes. The paper reports DBP beating
 * UBP by 4.3 % gmean.
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
    printSweepMetric(run, s, "ws", "weighted speedup", os);

    double gain = pctGain(sweepGmean(run, s, "UBP", "ws"),
                          sweepGmean(run, s, "DBP", "ws"));
    run.summary("gmean_ws_gain_dbp_vs_ubp_pct", gain);
    os << "DBP vs UBP gmean WS gain: " << formatDouble(gain, 2)
       << " %  (paper: +4.3 %)\n";
}

const CampaignRegistrar reg({
    "fig4",
    "weighted speedup: FR-FCFS vs UBP vs DBP",
    "Expected shape: DBP above UBP above FR-FCFS on most mixes, with "
    "a positive gmean gain.",
    sweepPlan(sweep),
    render,
});

} // namespace
