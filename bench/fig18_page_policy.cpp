/**
 * @file
 * Figure 18 (extension): row-buffer management policy under
 * partitioning. Gmean weighted speedup / max slowdown of open,
 * open-adaptive (idle-timeout close) and closed page policies, for
 * FR-FCFS and for DBP, over the sensitivity mixes. Partitioning
 * preserves per-thread row locality, so the open policies should keep
 * their edge over closed-page, and adaptive should recoup part of the
 * conflict tRP without hurting hit streaks.
 */

#include "bench_common.hh"

namespace {

using namespace dbpsim;
using namespace dbpsim::bench;

std::vector<MixSweep>
sweeps(const RunConfig &base)
{
    const std::pair<const char *, PagePolicy> policies[] = {
        {"open", PagePolicy::Open},
        {"adaptive", PagePolicy::OpenAdaptive},
        {"closed", PagePolicy::Closed},
    };
    std::vector<MixSweep> out;
    for (const std::string part : {"none", "dbp"}) {
        for (const auto &[name, policy] : policies) {
            // The label names the sweep's one scheme too.
            const std::string label = name + (" / " + part);
            RunConfig cfg = base;
            cfg.base.controller.pagePolicy = policy;
            out.push_back({cfg, sensitivityMixes(),
                           {Scheme{label, "fr-fcfs", part}}, label,
                           label + "/"});
        }
    }
    return out;
}

void
render(CampaignRun &run, std::ostream &os)
{
    TextTable table({"variant", "gmean WS", "gmean MS"});
    for (const auto &s : sweeps(run.config())) {
        table.beginRow();
        table.cell(s.label);
        table.cell(sweepGmean(run, s, s.label, "ws"), 3);
        table.cell(sweepGmean(run, s, s.label, "ms"), 3);
    }
    table.print(os);
}

const CampaignRegistrar reg({
    "fig18",
    "page policy x partitioning",
    "Expected shape: open policies keep their edge over closed-page "
    "under DBP; adaptive recoups part of\nthe conflict tRP. Not "
    "reproduced at the default window: under DBP closed-page leads "
    "open (WS 5.497\nvs 5.121, MS 1.838 vs 2.027) and adaptive trails "
    "open (WS 5.046, MS 2.116).",
    sweepPlan(sweeps),
    render,
});

} // namespace
