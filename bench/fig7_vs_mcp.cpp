/**
 * @file
 * Figure 7 (claims C3 + C5): comparison against Memory Channel
 * Partitioning. Weighted speedup and maximum slowdown of MCP, DBP and
 * DBP-TCM over the twelve mixes. The paper reports DBP-TCM beating MCP
 * by 5.3 % throughput and 37 % fairness — MCP's channel-granular
 * split concentrates the intensive threads' contention.
 */

#include "bench_common.hh"

namespace {

using namespace dbpsim;
using namespace dbpsim::bench;

MixSweep
sweep(const RunConfig &rc)
{
    return {rc, standardMixes(),
            {schemeByName("MCP"), schemeByName("DBP"),
             schemeByName("DBP-TCM")}};
}

void
render(CampaignRun &run, std::ostream &os)
{
    const MixSweep s = sweep(run.config());
    printSweepMetric(run, s, "ws", "weighted speedup", os);
    printSweepMetric(run, s, "ms", "maximum slowdown (lower = fairer)",
                     os);

    double mcp_ws = sweepGmean(run, s, "MCP", "ws");
    double comb_ws = sweepGmean(run, s, "DBP-TCM", "ws");
    double mcp_ms = sweepGmean(run, s, "MCP", "ms");
    double comb_ms = sweepGmean(run, s, "DBP-TCM", "ms");

    double ws_gain = pctGain(mcp_ws, comb_ws);
    double fair_gain = pctDrop(mcp_ms, comb_ms);
    run.summary("gmean_ws_gain_dbptcm_vs_mcp_pct", ws_gain);
    run.summary("gmean_fairness_gain_dbptcm_vs_mcp_pct", fair_gain);
    os << "DBP-TCM vs MCP gmean WS gain: " << formatDouble(ws_gain, 2)
       << " %  (paper: +5.3 %)\n";
    os << "DBP-TCM vs MCP gmean fairness gain: "
       << formatDouble(fair_gain, 2) << " %  (paper: +37 %)\n";
}

const CampaignRegistrar reg({
    "fig7",
    "MCP vs DBP vs DBP-TCM",
    "Expected shape: DBP-TCM ahead of MCP on throughput and far ahead "
    "on fairness.",
    sweepPlan(sweep),
    render,
});

} // namespace
