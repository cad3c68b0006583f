/**
 * @file
 * Figure 6 (claims C2 + C6): composing DBP with TCM scheduling.
 * Weighted speedup and maximum slowdown of TCM alone vs DBP-TCM over
 * the twelve mixes. The paper reports +6.2 % throughput and +16.7 %
 * fairness for the combination — the orthogonality argument: the
 * partition removes inter-thread bank conflicts while the scheduler
 * orders the remaining intra-bank contention.
 */

#include "bench_common.hh"

namespace {

using namespace dbpsim;
using namespace dbpsim::bench;

MixSweep
sweep(const RunConfig &rc)
{
    return {rc, standardMixes(),
            {schemeByName("TCM"), schemeByName("DBP-TCM")}};
}

void
render(CampaignRun &run, std::ostream &os)
{
    const MixSweep s = sweep(run.config());
    printSweepMetric(run, s, "ws", "weighted speedup", os);
    printSweepMetric(run, s, "ms", "maximum slowdown (lower = fairer)",
                     os);

    double tcm_ws = sweepGmean(run, s, "TCM", "ws");
    double comb_ws = sweepGmean(run, s, "DBP-TCM", "ws");
    double tcm_ms = sweepGmean(run, s, "TCM", "ms");
    double comb_ms = sweepGmean(run, s, "DBP-TCM", "ms");

    double ws_gain = pctGain(tcm_ws, comb_ws);
    double fair_gain = pctDrop(tcm_ms, comb_ms);
    run.summary("gmean_ws_gain_dbptcm_vs_tcm_pct", ws_gain);
    run.summary("gmean_fairness_gain_dbptcm_vs_tcm_pct", fair_gain);
    os << "DBP-TCM vs TCM gmean WS gain: " << formatDouble(ws_gain, 2)
       << " %  (paper: +6.2 %)\n";
    os << "DBP-TCM vs TCM gmean fairness gain: "
       << formatDouble(fair_gain, 2) << " %  (paper: +16.7 %)\n";
}

const CampaignRegistrar reg({
    "fig6",
    "TCM vs DBP-TCM (throughput and fairness)",
    "Expected shape: the combination beats TCM alone on both metrics "
    "for most mixes.",
    sweepPlan(sweep),
    render,
});

} // namespace
