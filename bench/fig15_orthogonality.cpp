/**
 * @file
 * Figure 15 (claim C6): partitioning and scheduling are orthogonal.
 * Gmean weighted speedup for every scheduler (FCFS, FR-FCFS, PAR-BS,
 * ATLAS, TCM) crossed with every partition (none, UBP, DBP) over the
 * sensitivity mixes. DBP should improve every scheduler, and the best
 * cell should be a combination, not a lone mechanism.
 */

#include "bench_common.hh"

namespace {

using namespace dbpsim;
using namespace dbpsim::bench;

const std::vector<std::string> &
scheds()
{
    static const std::vector<std::string> v = {"fcfs", "fr-fcfs",
                                               "par-bs", "atlas", "tcm"};
    return v;
}

const std::vector<std::string> &
parts()
{
    static const std::vector<std::string> v = {"none", "ubp", "dbp"};
    return v;
}

/** Every scheduler crossed with every partition, scheduler-major. */
MixSweep
sweep(const RunConfig &rc)
{
    std::vector<Scheme> schemes;
    for (const auto &sched : scheds())
        for (const auto &part : parts())
            schemes.push_back(Scheme{sched + "+" + part, sched, part});
    return {rc, sensitivityMixes(), schemes};
}

void
render(CampaignRun &run, std::ostream &os)
{
    const MixSweep s = sweep(run.config());
    TextTable ws_table({"scheduler", "none", "ubp", "dbp"});
    TextTable ms_table({"scheduler", "none", "ubp", "dbp"});
    for (const auto &scheme : s.schemes) {
        // Scheduler-major: a scheduler's row starts at its first
        // partition.
        if (scheme.partition == parts().front()) {
            ws_table.beginRow();
            ws_table.cell(scheme.scheduler);
            ms_table.beginRow();
            ms_table.cell(scheme.scheduler);
        }
        ws_table.cell(sweepGmean(run, s, scheme.name, "ws"), 3);
        ms_table.cell(sweepGmean(run, s, scheme.name, "ms"), 3);
    }
    os << "weighted speedup:\n";
    ws_table.print(os);
    os << "\nmaximum slowdown (lower = fairer):\n";
    ms_table.print(os);
}

const CampaignRegistrar reg({
    "fig15",
    "scheduler x partition landscape (gmean WS)",
    "Expected shape: the dbp column beats none/ubp for every "
    "scheduler; the best cell is a combination.",
    sweepPlan(sweep),
    render,
});

} // namespace
