/**
 * @file
 * Figure 20 (extension): refresh mode x scheme. DRAM refresh steals
 * bank time; how much throughput and fairness it costs depends on the
 * refresh granularity and on whether banks are partitioned. All-bank
 * REF blocks a whole rank for tRFC; per-bank REFpb blocks one bank
 * for tRFCpb, so the other banks keep serving — and under DBP a
 * thread only ever stalls on refreshes of its own banks
 * (refresh-access parallelism, as in the DARP line of work). The
 * "darp" variant adds refresh-aware issue: pull-in during idle,
 * postponement under demand, out-of-order bank rotation.
 *
 * Every job runs with the protocol checker enabled, so the campaign
 * doubles as an end-to-end validation that no refresh mode violates
 * the DDR3 rules; the driver fails on any nonzero violation count.
 */

#include "bench_common.hh"

namespace {

using namespace dbpsim;
using namespace dbpsim::bench;

struct Mode
{
    const char *name;
    RefreshMode mode;
    bool aware;
};

const std::vector<Mode> &
modes()
{
    static const std::vector<Mode> m = {
        {"none", RefreshMode::None, false},
        {"all-bank", RefreshMode::AllBank, false},
        {"per-bank", RefreshMode::PerBank, false},
        {"darp", RefreshMode::PerBank, true},
    };
    return m;
}

std::vector<Scheme>
schemes()
{
    return {schemeByName("FR-FCFS"), schemeByName("DBP"),
            schemeByName("DBP-TCM")};
}

std::string
prefixFor(const Mode &m)
{
    return std::string(m.name) + "/";
}

void
plan(CampaignPlan &p, CampaignContext &ctx)
{
    for (const auto &m : modes()) {
        RunConfig cfg = ctx.config();
        cfg.base.controller.refresh.mode = m.mode;
        cfg.base.controller.refresh.aware = m.aware;
        cfg.base.protocolCheck = true;
        planMixSweep(p, cfg, prefixFor(m), sensitivityMixes(),
                     schemes());
    }
}

void
render(CampaignRun &run, std::ostream &os)
{
    for (const char *field : {"ws", "ms"}) {
        TextTable table({std::string("gmean ") + field + " (refresh)",
                         "FR-FCFS", "DBP", "DBP-TCM"});
        for (const auto &m : modes()) {
            table.beginRow();
            table.cell(m.name);
            for (const auto &s : schemes()) {
                double g = geomean(sweepColumn(run, prefixFor(m),
                                               sensitivityMixes(),
                                               s.name, field));
                table.cell(g, 3);
                run.summary(std::string("gmean_") + field + "_" +
                                prefixFor(m) + s.name,
                            g);
            }
        }
        table.print(os);
        os << '\n';
    }

    // How much of the refresh-induced loss does per-bank refresh
    // recover under DBP? (100 % = back to the no-refresh ideal.)
    auto gm = [&](const char *mode, const char *scheme,
                  const char *field) {
        return geomean(sweepColumn(run, std::string(mode) + "/",
                                   sensitivityMixes(), scheme, field));
    };
    double ws_none = gm("none", "DBP", "ws");
    double ws_all = gm("all-bank", "DBP", "ws");
    double ws_pb = gm("per-bank", "DBP", "ws");
    if (ws_none > ws_all) {
        double recovered =
            100.0 * (ws_pb - ws_all) / (ws_none - ws_all);
        run.summary("ws_loss_recovered_pct_DBP", recovered);
        os << "DBP weighted-speedup loss to refresh recovered by "
              "per-bank refresh: " << recovered << " %\n";
    }
}

const CampaignRegistrar reg({
    "fig20",
    "refresh mode x scheme (throughput, fairness, checker-clean)",
    "Expected shape: refresh costs throughput and fairness everywhere; "
    "per-bank refresh beats all-bank\nrefresh, and most clearly so "
    "under DBP, where a thread only stalls on its own banks' "
    "refreshes.\nNot reproduced at the default window: per-bank "
    "refresh beats no refresh on WS and MS under all\nthree schemes "
    "(DBP 5.158 vs 5.142 WS, 2.000 vs 2.028 MS), and FR-FCFS gains "
    "more from per-bank\nover all-bank (4.932 -> 4.965 WS) than DBP "
    "(5.129 -> 5.158).",
    plan,
    render,
});

} // namespace
