/**
 * @file
 * Shared plumbing for the figure/table campaigns: the sensitivity mix
 * subset, fig2 and fig3's alone bank sweep, the sensitivity table and
 * small metric helpers. Every campaign accepts key=value overrides
 * through the dbpsim_bench driver (see README), which builds its
 * RunConfig with makeRunConfig().
 */

#ifndef DBPSIM_BENCH_BENCH_COMMON_HH
#define DBPSIM_BENCH_BENCH_COMMON_HH

#include <string>
#include <vector>

#include "common/config.hh"
#include "common/table.hh"
#include "sim/campaign.hh"
#include "trace/mix.hh"

namespace dbpsim {
namespace bench {

/** The evaluation RunConfig from parsed overrides (sim/params.hh). */
using dbpsim::makeRunConfig;

/** A representative subset (25/50/75/100 % intensive) for sweeps. */
inline std::vector<WorkloadMix>
sensitivityMixes()
{
    return {mixByName("W02"), mixByName("W04"), mixByName("W07"),
            mixByName("W10")};
}

/** The plan() of a campaign whose jobs are those of @p sweeps. */
inline decltype(CampaignSpec::plan)
sweepPlan(std::vector<MixSweep> (*sweeps)(const RunConfig &))
{
    return [sweeps](CampaignPlan &p, CampaignContext &ctx) {
        for (const auto &s : sweeps(ctx.config()))
            planMixSweep(p, s);
    };
}

/** The plan() of a campaign whose jobs are those of @p sweep. */
inline decltype(CampaignSpec::plan)
sweepPlan(MixSweep (*sweep)(const RunConfig &))
{
    return [sweep](CampaignPlan &p, CampaignContext &ctx) {
        planMixSweep(p, sweep(ctx.config()));
    };
}

/** The bank counts fig2 and fig3 confine an application to, alone. */
inline const std::vector<unsigned> &
aloneBankCounts()
{
    static const std::vector<unsigned> k = {1, 2, 4, 8, 16, 32};
    return k;
}

/** Job key of @p app's alone run confined to @p banks banks. */
inline std::string
aloneBanksKey(const std::string &app, unsigned banks)
{
    return app + "/" + std::to_string(banks) + "bk";
}

/** Declare @p app's alone runs, one per aloneBankCounts() entry. */
inline void
planAloneBankSweep(CampaignPlan &p, const std::string &app)
{
    for (unsigned k : aloneBankCounts()) {
        p.add(aloneBanksKey(app, k), [app, k](CampaignContext &ctx) {
            Json j = Json::object();
            j.set("ipc", aloneIpcWithBanks(ctx.config(), app, k));
            return j;
        });
    }
}

/** IPC of @p app's alone run confined to @p banks banks. */
inline double
aloneBanksIpc(const CampaignRun &run, const std::string &app,
              unsigned banks)
{
    return run.num(aloneBanksKey(app, banks), "ipc");
}

/**
 * The sensitivity table (fig10, fig12, fig13): one row per sweep, its
 * label under @p corner, then each scheme's gmean weighted speedup and
 * each scheme's gmean max slowdown.
 */
inline void
printWsMsGmeans(const CampaignRun &run, const std::vector<MixSweep> &sweeps,
                const std::string &corner, std::ostream &os)
{
    std::vector<std::string> headers{corner};
    for (const std::string metric : {"WS ", "MS "})
        for (const auto &s : sweeps.front().schemes)
            headers.push_back(metric + s.name);
    TextTable table(headers);
    for (const auto &sweep : sweeps) {
        table.beginRow();
        table.cell(sweep.label);
        for (const char *field : {"ws", "ms"})
            for (const auto &s : sweep.schemes)
                table.cell(sweepGmean(run, sweep, s.name, field), 3);
    }
    table.print(os);
}

/** The keys `dbpsim_bench sweep` reads (see sweep.cpp). */
const std::vector<std::string> &sweepKeys();

/** The ad-hoc sweep campaign that @p cfg's sweep keys describe. */
CampaignSpec sweepCampaign(const Config &cfg);

/** Percent improvement of scheme b over scheme a for a metric where
 *  higher is better. */
inline double
pctGain(double a, double b)
{
    return 100.0 * (b - a) / a;
}

/** Percent reduction of b relative to a (fairness-style gain for
 *  metrics where lower is better). */
inline double
pctDrop(double a, double b)
{
    return 100.0 * (a - b) / a;
}

} // namespace bench
} // namespace dbpsim

#endif // DBPSIM_BENCH_BENCH_COMMON_HH
