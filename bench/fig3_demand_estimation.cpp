/**
 * @file
 * Figure 3: DBP's bank-demand estimator tracks true demand. For each
 * intensive application, the alone-run row-miss intensity
 * (MPKI * (1 - RBHR)) — the signal DBP deals banks in proportion to —
 * is compared with the empirically "sufficient" bank count: the
 * smallest k whose confined-to-k-banks IPC reaches 90 % of the
 * all-banks IPC. The two should rank applications the same way.
 */

#include "bench_common.hh"
#include "trace/spec_profiles.hh"

namespace {

using namespace dbpsim;
using namespace dbpsim::bench;

std::vector<std::string>
intensiveApps()
{
    std::vector<std::string> out;
    for (const auto &info : specProfiles())
        if (info.intensive)
            out.push_back(info.name);
    return out;
}

void
plan(CampaignPlan &p, CampaignContext &)
{
    for (const auto &app : intensiveApps()) {
        p.add(app + "/profile", [app](CampaignContext &ctx) {
            AloneBaseline b = ctx.baselines().get(ctx.config(), app);
            Json j = Json::object();
            j.set("mpki", b.profile.mpki);
            j.set("row_hit_rate", b.profile.rowBufferHitRate);
            return j;
        });
        planAloneBankSweep(p, app);
    }
}

void
render(CampaignRun &run, std::ostream &os)
{
    TextTable table({"app", "MPKI", "RB hit", "miss intensity",
                     "sufficient banks (90% IPC)"});
    for (const auto &app : intensiveApps()) {
        double mpki = run.num(app + "/profile", "mpki");
        double rbhr = run.num(app + "/profile", "row_hit_rate");
        // DBP's demand signal: row misses per kilo-instruction.
        double demand = mpki * (1.0 - rbhr);

        const unsigned all = aloneBankCounts().back();
        double full = aloneBanksIpc(run, app, all);
        unsigned sufficient = all;
        for (unsigned k : aloneBankCounts()) {
            if (aloneBanksIpc(run, app, k) >= 0.9 * full) {
                sufficient = k;
                break;
            }
        }

        table.beginRow();
        table.cell(app);
        table.cell(mpki, 2);
        table.cell(rbhr, 2);
        table.cell(demand, 2);
        table.cell(sufficient);
    }
    table.print(os);
}

const CampaignRegistrar reg({
    "fig3",
    "bank-demand estimation vs sufficient banks",
    "Expected shape: miss intensity and sufficient bank count rank "
    "the applications consistently\n(streaming apps low, irregular "
    "intensive apps high).",
    plan,
    render,
});

} // namespace
