/**
 * @file
 * Figure 8 (claim C5): per-thread slowdowns inside one mix. MCP packs
 * the intensive threads into a channel subset and inflates their
 * slowdowns; DBP keeps every thread's slowdown moderate. One row per
 * application of mix W06, one column per scheme.
 */

#include "bench_common.hh"

namespace {

using namespace dbpsim;
using namespace dbpsim::bench;

MixSweep
sweep(const RunConfig &rc)
{
    return {rc, {mixByName("W06")},
            {schemeByName("FR-FCFS"), schemeByName("MCP"),
             schemeByName("DBP"), schemeByName("DBP-TCM")}};
}

void
render(CampaignRun &run, std::ostream &os)
{
    const MixSweep sw = sweep(run.config());
    const WorkloadMix &mix = sw.mixes.front();

    std::vector<std::string> headers{"app"};
    for (const auto &s : sw.schemes)
        headers.push_back(s.name);
    TextTable table(headers);
    for (std::size_t t = 0; t < mix.apps.size(); ++t) {
        table.beginRow();
        table.cell(mix.apps[t]);
        for (const auto &s : sw.schemes) {
            const Json &job = sweepJob(run, sw, mix.name, s.name);
            table.cell(job.at("slowdowns").at(t).asDouble(), 3);
        }
    }
    table.beginRow();
    table.cell("MAX");
    for (const auto &s : sw.schemes) {
        double ms = sweepJob(run, sw, mix.name, s.name).at("ms").asDouble();
        table.cell(ms, 3);
        run.summary("max_slowdown_" + s.name, ms);
    }
    table.print(os);
}

const CampaignRegistrar reg({
    "fig8",
    "per-thread slowdowns in one mix",
    "Expected shape: MCP's worst thread (an intensive one) suffers far "
    "more than under DBP/DBP-TCM.",
    sweepPlan(sweep),
    render,
});

} // namespace
