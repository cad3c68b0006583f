/**
 * @file
 * Figure 14 (ablation): which DBP design choices matter. Gmean
 * weighted speedup / max slowdown / migrated pages over the
 * sensitivity mixes for: full DBP; no light-thread grouping (every
 * thread treated heavy); no hysteresis vs strong hysteresis;
 * allocation-only (no migration) vs idealized free migration; and a
 * flat demand estimate (ignore measured BLP).
 */

#include "bench_common.hh"

namespace {

using namespace dbpsim;
using namespace dbpsim::bench;

std::vector<MixSweep>
sweeps(const RunConfig &base)
{
    std::vector<MixSweep> out;
    // One DBP sweep per variant; the caller tweaks its parameters.
    auto variant = [&](const char *label, const char *prefix)
        -> SystemParams & {
        out.push_back({base, sensitivityMixes(), {schemeByName("DBP")},
                       label, prefix});
        return out.back().config.base;
    };
    variant("full DBP", "full/");
    // Nothing is "light": every thread gets a private demand share.
    variant("no light grouping", "nolight/").dbp.lightMpki = 0.0;
    variant("hysteresis=4", "hyst4/").dbp.hysteresisBanks = 4;
    variant("no migration", "nomig/").partMgr.migration =
        MigrationMode::None;
    variant("free migration", "freemig/").partMgr.migration =
        MigrationMode::EagerFree;
    // All heavy threads report equal demand — the dynamic machinery
    // with the estimator unplugged.
    variant("flat demand", "flat/").dbp.flatDemand = true;
    return out;
}

void
render(CampaignRun &run, std::ostream &os)
{
    TextTable table({"variant", "gmean WS", "gmean MS",
                     "pages migrated"});
    for (const auto &s : sweeps(run.config())) {
        table.beginRow();
        table.cell(s.label);
        table.cell(sweepGmean(run, s, "DBP", "ws"), 3);
        table.cell(sweepGmean(run, s, "DBP", "ms"), 3);
        table.cell(static_cast<std::uint64_t>(
            sweepSum(run, s, "DBP", "pages_migrated")));
    }
    table.print(os);
}

const CampaignRegistrar reg({
    "fig14",
    "DBP design ablations",
    "Expected shape: full DBP at or near the best WS/MS; flat demand "
    "loses the BLP compensation; free\nmigration bounds what the cost "
    "model forfeits.",
    sweepPlan(sweeps),
    render,
});

} // namespace
