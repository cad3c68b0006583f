/**
 * @file
 * Figure 16 (extension): DRAM energy per scheme. Bank partitioning
 * restores row-buffer locality, which shows up as fewer ACTIVATE /
 * PRECHARGE pairs per unit of work. Reports per-scheme activates per
 * kilo-request and the energy breakdown from the Micron-style model,
 * averaged over the sensitivity mixes.
 */

#include "bench_common.hh"
#include "common/log.hh"

namespace {

using namespace dbpsim;
using namespace dbpsim::bench;

MixSweep
sweep(const RunConfig &rc)
{
    return {rc, sensitivityMixes(),
            {schemeByName("FR-FCFS"), schemeByName("UBP"),
             schemeByName("DBP"), schemeByName("DBP-TCM")}};
}

void
plan(CampaignPlan &p, CampaignContext &ctx)
{
    const MixSweep s = sweep(ctx.config());
    // Refresh is on by default; a zero refresh-energy term then means
    // the REF counts were dropped on the floor somewhere between the
    // channel stats and the energy model.
    const bool refresh =
        s.config.base.controller.refresh.mode != RefreshMode::None;
    auto energy = [refresh](Json &j, const MixResult &r) {
        const DramEnergyBreakdown &e = r.energy;
        if (refresh && e.refreshNj <= 0.0)
            DBP_PANIC("fig16: refresh enabled but refresh energy is zero "
                      "(mix " << r.mixName << ", scheme " << r.schemeName
                      << ")");
        j.set("acts", r.activates);
        j.set("requests", r.requests);
        j.set("act_pre_nj", e.actPreNj);
        j.set("read_nj", e.readNj);
        j.set("write_nj", e.writeNj);
        j.set("refresh_nj", e.refreshNj);
        j.set("background_nj", e.backgroundNj);
        j.set("total_nj", e.totalNj());
    };
    planMixSweep(p, s, energy);
}

void
render(CampaignRun &run, std::ostream &os)
{
    TextTable table({"scheme", "ACT per kilo-request", "act+pre (mJ)",
                     "rd+wr (mJ)", "refresh (mJ)", "total (mJ)"});
    const MixSweep s = sweep(run.config());
    for (const auto &scheme : s.schemes) {
        auto sum = [&](const char *field) {
            return sweepSum(run, s, scheme.name, field);
        };
        double acts_per_kreq = 1000.0 * sum("acts") / sum("requests");
        table.beginRow();
        table.cell(scheme.name);
        table.cell(acts_per_kreq, 1);
        table.cell(sum("act_pre_nj") * 1e-6, 3);
        table.cell((sum("read_nj") + sum("write_nj")) * 1e-6, 3);
        table.cell(sum("refresh_nj") * 1e-6, 3);
        table.cell(sum("total_nj") * 1e-6, 3);
        run.summary("acts_per_kreq_" + scheme.name, acts_per_kreq);
    }
    table.print(os);
}

const CampaignRegistrar reg({
    "fig16",
    "DRAM activity and energy per scheme",
    "Expected shape: partitioned schemes issue fewer activates per "
    "request (row locality preserved),\nlowering the act+pre energy "
    "component.",
    plan,
    render,
});

} // namespace
