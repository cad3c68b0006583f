/**
 * @file
 * Figure 1 (motivation): inter-thread interference destroys row-buffer
 * locality. Each application's interference-free row-buffer hit rate
 * (alone) is compared with its actual hit rate while co-running in a
 * fully intensive mix under unpartitioned FR-FCFS, and with the hit
 * rate under equal bank partitioning (which restores isolation).
 */

#include "bench_common.hh"

namespace {

using namespace dbpsim;
using namespace dbpsim::bench;

MixSweep
sweep(const RunConfig &rc)
{
    return {rc, {mixByName("W10")}, // 100 % intensive.
            {schemeByName("FR-FCFS"), schemeByName("UBP")}};
}

void
plan(CampaignPlan &p, CampaignContext &context)
{
    const MixSweep s = sweep(context.config());
    planMixSweep(p, s);
    for (const auto &app : s.mixes.front().apps) {
        p.add("alone/" + app, [app](CampaignContext &ctx) {
            AloneBaseline b = ctx.baselines().get(ctx.config(), app);
            Json j = Json::object();
            j.set("row_hit_rate", b.profile.rowBufferHitRate);
            return j;
        });
    }
}

void
render(CampaignRun &run, std::ostream &os)
{
    const MixSweep s = sweep(run.config());
    const WorkloadMix &mix = s.mixes.front();
    const Json &shared = sweepJob(run, s, mix.name, "FR-FCFS");
    const Json &ubp = sweepJob(run, s, mix.name, "UBP");

    TextTable table({"app", "alone RB hit", "shared RB hit",
                     "UBP RB hit", "lost (alone-shared)"});
    double lost_sum = 0.0;
    for (std::size_t t = 0; t < mix.apps.size(); ++t) {
        double alone =
            run.num("alone/" + mix.apps[t], "row_hit_rate");
        double sh = shared.at("row_hit_rate").at(t).asDouble();
        double ub = ubp.at("row_hit_rate").at(t).asDouble();
        lost_sum += alone - sh;
        table.beginRow();
        table.cell(mix.apps[t]);
        table.cell(alone, 3);
        table.cell(sh, 3);
        table.cell(ub, 3);
        table.cell(alone - sh, 3);
    }
    table.print(os);
    run.summary("mean_rb_hit_lost_shared",
                lost_sum / static_cast<double>(mix.apps.size()));
}

const CampaignRegistrar reg({
    "fig1",
    "row-buffer locality: alone vs shared vs UBP",
    "Expected shape: shared << alone for high-locality apps; UBP "
    "restores most of the loss.",
    plan,
    render,
});

} // namespace
