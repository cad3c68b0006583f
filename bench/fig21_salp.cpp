/**
 * @file
 * Figure 21 (extension): subarray-level parallelism x scheme. Bank
 * partitioning trades row-buffer isolation for bank-level parallelism:
 * a thread confined to its color set has fewer banks to spread misses
 * over. SALP/MASA (Kim et al., ISCA 2012) recovers parallelism
 * *inside* each bank — overlapping precharge with activation (SALP-1),
 * activation with write recovery (SALP-2), or keeping several
 * subarrays' row buffers open at once (MASA) — so the question this
 * campaign asks is whether DBP plus MASA closes the BLP gap that
 * partitioning opens: does DBP with MASA-capable banks meet or beat
 * DBP with single-subarray banks, and how does the same upgrade move
 * UBP?
 *
 * The "masa-8c" variant additionally colors frames by subarray
 * (subarray_color=1), exercising the subarray-granular partitioning
 * axis end to end.
 *
 * Every job runs with the protocol checker enabled, so the campaign
 * doubles as an end-to-end validation that no SALP mode violates the
 * DDR3 + subarray rules; the driver fails on any nonzero violation
 * count.
 */

#include "bench_common.hh"

namespace {

using namespace dbpsim;
using namespace dbpsim::bench;

struct Mode
{
    const char *name;
    SalpMode salp;
    unsigned subarrays;
    bool color;
};

const std::vector<Mode> &
modes()
{
    static const std::vector<Mode> m = {
        {"s1", SalpMode::None, 1, false},
        {"salp1-8", SalpMode::Salp1, 8, false},
        {"salp2-8", SalpMode::Salp2, 8, false},
        {"masa-4", SalpMode::Masa, 4, false},
        {"masa-8", SalpMode::Masa, 8, false},
        {"masa-8c", SalpMode::Masa, 8, true},
    };
    return m;
}

std::vector<Scheme>
schemes()
{
    return {schemeByName("UBP"), schemeByName("DBP")};
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
        cfg.base.controller.salp = m.salp;
        cfg.base.geometry.subarraysPerBank = m.subarrays;
        cfg.base.subarrayColoring = m.color;
        cfg.base.protocolCheck = true;
        planMixSweep(p, cfg, prefixFor(m), sensitivityMixes(),
                     schemes());
    }
}

void
render(CampaignRun &run, std::ostream &os)
{
    for (const char *field : {"ws", "ms"}) {
        TextTable table({std::string("gmean ") + field + " (salp)",
                         "UBP", "DBP"});
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

    auto gm = [&](const char *mode, const char *scheme,
                  const char *field) {
        return geomean(sweepColumn(run, std::string(mode) + "/",
                                   sensitivityMixes(), scheme, field));
    };

    // Does MASA close the BLP gap partitioning opens? Compare each
    // scheme's MASA-equipped machine against its single-subarray one,
    // and the partitioning gap (DBP over UBP) in both worlds.
    double ubp_s1 = gm("s1", "UBP", "ws");
    double ubp_masa = gm("masa-8", "UBP", "ws");
    double dbp_s1 = gm("s1", "DBP", "ws");
    double dbp_masa = gm("masa-8", "DBP", "ws");
    run.summary("ws_gain_pct_UBP_masa8", pctGain(ubp_s1, ubp_masa));
    run.summary("ws_gain_pct_DBP_masa8", pctGain(dbp_s1, dbp_masa));
    os << "weighted-speedup gain from MASA (8 subarrays): UBP "
       << pctGain(ubp_s1, ubp_masa) << " %, DBP "
       << pctGain(dbp_s1, dbp_masa) << " %\n";
    os << "DBP with MASA vs DBP with single-subarray banks: "
       << pctGain(dbp_s1, dbp_masa) << " % ws\n";
}

const CampaignRegistrar reg({
    "fig21",
    "subarray-level parallelism (SALP/MASA) x scheme",
    "Expected shape: each variant divides by the alone IPC on its own "
    "machine, and SALP/MASA speed\nup a lone thread's bank conflicts "
    "too, so weighted speedup sits 1-3 % below the single-\nsubarray "
    "machine's; max slowdown falls under SALP-1/SALP-2, and subarray "
    "coloring (masa-8c)\nedges out plain masa-8 on both. Not "
    "reproduced at the default window: masa-8 sits 3.1 % (UBP) and\n"
    "3.4 % (DBP) below s1; DBP's max slowdown rises under "
    "SALP-1/SALP-2 (2.028 -> 2.081/2.072); and\nmasa-8c trails masa-8 "
    "on both (UBP WS 4.905 vs 4.929, MS 2.421 vs 2.371; DBP 4.861 vs "
    "4.957,\n2.401 vs 2.198).",
    plan,
    render,
});

} // namespace
