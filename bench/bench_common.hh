/**
 * @file
 * Shared plumbing for the figure/table campaigns: the standard mix
 * subsets and small metric helpers. Every campaign accepts key=value
 * overrides through the dbpsim_bench driver (see README), which builds
 * its RunConfig with makeRunConfig().
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

/** The mixes the full figures sweep. */
inline std::vector<WorkloadMix>
allMixes()
{
    return standardMixes();
}

/** A representative subset (25/50/75/100 % intensive) for sweeps. */
inline std::vector<WorkloadMix>
sensitivityMixes()
{
    return {mixByName("W02"), mixByName("W04"), mixByName("W07"),
            mixByName("W10")};
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
