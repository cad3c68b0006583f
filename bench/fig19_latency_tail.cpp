/**
 * @file
 * Figure 19 (extension): tail read latency. Unfairness shows up first
 * in the latency tail — a victim's P95 balloons long before its mean
 * does. Reports per-scheme, over the sensitivity mixes: the mean P50 /
 * P95 across threads and the worst single thread's P95 (the
 * tail-fairness analogue of max slowdown). Bank partitioning should
 * compress the worst-thread tail.
 */

#include <algorithm>

#include "bench_common.hh"

namespace {

using namespace dbpsim;
using namespace dbpsim::bench;

MixSweep
sweep(const RunConfig &rc)
{
    return {rc, sensitivityMixes(),
            {schemeByName("FR-FCFS"), schemeByName("UBP"),
             schemeByName("DBP"), schemeByName("TCM"),
             schemeByName("DBP-TCM")}};
}

void
plan(CampaignPlan &p, CampaignContext &ctx)
{
    planMixSweep(p, sweep(ctx.config()),
                 [](Json &j, const MixResult &r) {
                     j.set("p50", Json::array(r.readLatencyP50));
                     j.set("p95", Json::array(r.readLatencyP95));
                 });
}

void
render(CampaignRun &run, std::ostream &os)
{
    TextTable table({"scheme", "mean P50", "mean P95",
                     "worst-thread P95"});
    const MixSweep s = sweep(run.config());
    for (const auto &scheme : s.schemes) {
        double p50_sum = 0, p95_sum = 0, worst95 = 0;
        unsigned threads = 0;
        for (const auto &mix : s.mixes) {
            const Json &job = sweepJob(run, s, mix.name, scheme.name);
            const Json &p50 = job.at("p50");
            const Json &p95 = job.at("p95");
            for (std::size_t t = 0; t < p95.size(); ++t) {
                p50_sum += p50.at(t).asDouble();
                p95_sum += p95.at(t).asDouble();
                worst95 = std::max(worst95, p95.at(t).asDouble());
                ++threads;
            }
        }
        table.beginRow();
        table.cell(scheme.name);
        table.cell(p50_sum / threads, 1);
        table.cell(p95_sum / threads, 1);
        table.cell(worst95, 1);
        run.summary("worst_thread_p95_" + scheme.name, worst95);
    }
    table.print(os);
}

const CampaignRegistrar reg({
    "fig19",
    "read-latency tails per scheme (bus cycles)",
    "Expected shape: partitioned schemes compress the worst-thread "
    "P95 (victims stop queueing behind\nother threads' row "
    "conflicts). Not reproduced at the default window: the worst-"
    "thread P95 is\n256 under UBP and 248 under DBP against "
    "FR-FCFS's 248 bus cycles (DBP-TCM 264 against TCM's 272).",
    plan,
    render,
});

} // namespace
