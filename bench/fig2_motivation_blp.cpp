/**
 * @file
 * Figure 2 (motivation): equal bank partitioning caps bank-level
 * parallelism (claim C4). Each application runs alone with its pages
 * confined to k banks, k in {1, 2, 4, 8, 16, 32}; IPC is reported
 * normalized to the all-banks case. High-BLP applications (mcf-like)
 * keep gaining with more banks — a static equal share (4 banks at
 * 8 cores / 32 banks) leaves their parallelism on the table, which is
 * exactly the deficiency DBP repairs.
 */

#include "bench_common.hh"

namespace {

using namespace dbpsim;
using namespace dbpsim::bench;

const std::vector<std::string> &
apps()
{
    static const std::vector<std::string> a = {"mcf", "omnetpp", "lbm",
                                               "libquantum"};
    return a;
}

void
plan(CampaignPlan &p, CampaignContext &)
{
    for (const auto &app : apps())
        planAloneBankSweep(p, app);
}

void
render(CampaignRun &run, std::ostream &os)
{
    std::vector<std::string> headers{"app"};
    for (unsigned k : aloneBankCounts())
        headers.push_back(std::to_string(k));
    TextTable table(headers);
    for (const auto &app : apps()) {
        double base = aloneBanksIpc(run, app, aloneBankCounts().back());
        table.beginRow();
        table.cell(app);
        for (unsigned k : aloneBankCounts())
            table.cell(aloneBanksIpc(run, app, k) / base, 3);
    }
    table.print(os);
}

const CampaignRegistrar reg({
    "fig2",
    "IPC vs available banks (alone, normalized)",
    "Expected shape: libquantum saturates by ~2 banks; mcf/omnetpp "
    "keep improving well past the 4-bank\nequal share of an 8-core "
    "machine.",
    plan,
    render,
});

} // namespace
