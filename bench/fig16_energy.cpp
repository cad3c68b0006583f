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

std::vector<Scheme>
schemes()
{
    return {schemeByName("FR-FCFS"), schemeByName("UBP"),
            schemeByName("DBP"), schemeByName("DBP-TCM")};
}

void
plan(CampaignPlan &p, CampaignContext &ctx)
{
    // Refresh is on by default; a zero refresh-energy term then means
    // the REF counts were dropped on the floor somewhere between the
    // channel stats and the energy model.
    const bool refresh =
        ctx.config().base.controller.refresh.mode != RefreshMode::None;
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
    planMixSweep(p, sensitivityMixes(), schemes(), energy);
}

void
render(CampaignRun &run, std::ostream &os)
{
    TextTable table({"scheme", "ACT per kilo-request", "act+pre (mJ)",
                     "rd+wr (mJ)", "refresh (mJ)", "total (mJ)"});
    for (const auto &scheme : schemes()) {
        double acts = 0, reqs = 0;
        double act_pre = 0, rdwr = 0, refresh = 0, total = 0;
        for (const auto &mix : sensitivityMixes()) {
            const std::string k = sweepKey("", mix.name, scheme.name);
            acts += run.num(k, "acts");
            reqs += run.num(k, "requests");
            act_pre += run.num(k, "act_pre_nj");
            rdwr += run.num(k, "read_nj") + run.num(k, "write_nj");
            refresh += run.num(k, "refresh_nj");
            total += run.num(k, "total_nj");
        }
        table.beginRow();
        table.cell(scheme.name);
        table.cell(1000.0 * acts / reqs, 1);
        table.cell(act_pre * 1e-6, 3);
        table.cell(rdwr * 1e-6, 3);
        table.cell(refresh * 1e-6, 3);
        table.cell(total * 1e-6, 3);
        run.summary("acts_per_kreq_" + scheme.name,
                    1000.0 * acts / reqs);
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
