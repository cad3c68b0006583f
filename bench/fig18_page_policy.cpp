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

struct Variant
{
    const char *name;
    PagePolicy policy;
    const char *part;
};

const std::vector<Variant> &
variants()
{
    static const std::vector<Variant> v = {
        {"open / none", PagePolicy::Open, "none"},
        {"adaptive / none", PagePolicy::OpenAdaptive, "none"},
        {"closed / none", PagePolicy::Closed, "none"},
        {"open / dbp", PagePolicy::Open, "dbp"},
        {"adaptive / dbp", PagePolicy::OpenAdaptive, "dbp"},
        {"closed / dbp", PagePolicy::Closed, "dbp"},
    };
    return v;
}

std::string
prefixFor(const Variant &v)
{
    return std::string(v.name) + "/";
}

void
plan(CampaignPlan &p, CampaignContext &ctx)
{
    for (const auto &v : variants()) {
        RunConfig cfg = ctx.config();
        cfg.base.controller.pagePolicy = v.policy;
        Scheme scheme{v.name, "fr-fcfs", v.part};
        planMixSweep(p, cfg, prefixFor(v), sensitivityMixes(),
                     {scheme});
    }
}

void
render(CampaignRun &run, std::ostream &os)
{
    TextTable table({"variant", "gmean WS", "gmean MS"});
    for (const auto &v : variants()) {
        table.beginRow();
        table.cell(v.name);
        table.cell(geomean(sweepColumn(run, prefixFor(v),
                                       sensitivityMixes(), v.name,
                                       "ws")),
                   3);
        table.cell(geomean(sweepColumn(run, prefixFor(v),
                                       sensitivityMixes(), v.name,
                                       "ms")),
                   3);
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
    plan,
    render,
});

} // namespace
