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

std::vector<MixSweep>
sweeps(const RunConfig &base)
{
    std::vector<MixSweep> out;
    auto mode = [&](const char *name, RefreshMode refresh, bool aware) {
        RunConfig cfg = base;
        cfg.base.controller.refresh.mode = refresh;
        cfg.base.controller.refresh.aware = aware;
        cfg.base.protocolCheck = true;
        out.push_back({cfg, sensitivityMixes(),
                       {schemeByName("FR-FCFS"), schemeByName("DBP"),
                        schemeByName("DBP-TCM")},
                       name, std::string(name) + "/"});
    };
    mode("none", RefreshMode::None, false);
    mode("all-bank", RefreshMode::AllBank, false);
    mode("per-bank", RefreshMode::PerBank, false);
    mode("darp", RefreshMode::PerBank, true);
    return out;
}

void
render(CampaignRun &run, std::ostream &os)
{
    const std::vector<MixSweep> rows = sweeps(run.config());
    for (const std::string field : {"ws", "ms"})
        printSweepGmeans(run, rows, field,
                         "gmean " + field + " (refresh)", os);

    // How much of the refresh-induced loss does per-bank refresh
    // recover under DBP? (100 % = back to the no-refresh ideal.)
    const MixSweep &none = rows[0], &all_bank = rows[1],
                   &per_bank = rows[2];
    double ws_none = sweepGmean(run, none, "DBP", "ws");
    double ws_all = sweepGmean(run, all_bank, "DBP", "ws");
    double ws_pb = sweepGmean(run, per_bank, "DBP", "ws");
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
    sweepPlan(sweeps),
    render,
});

} // namespace
