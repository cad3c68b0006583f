/**
 * @file
 * Experiment harness: runs a workload mix under a scheme, taking
 * alone-run baselines from a shared cache and computing the paper's
 * metrics. Every figure campaign, example and experiment test builds
 * on runMixJob().
 *
 * Thread-safety contract (the campaign layer depends on it):
 * runMixJob() is stateless and may be called concurrently from any
 * number of threads. The only shared mutable state is the
 * alone-baseline cache (see sim/baseline.hh), which synchronizes
 * internally, so one process never repeats an alone run.
 */

#ifndef DBPSIM_SIM_EXPERIMENT_HH
#define DBPSIM_SIM_EXPERIMENT_HH

#include <string>
#include <vector>

#include "sim/baseline.hh"
#include "sim/metrics.hh"
#include "sim/schemes.hh"
#include "sim/system.hh"
#include "trace/mix.hh"

namespace dbpsim {

/**
 * Result of one mix under one scheme.
 */
struct MixResult
{
    std::string mixName;
    std::string schemeName;
    SystemMetrics metrics;
    std::vector<double> aloneIpc;
    std::vector<double> sharedIpc;
    std::vector<double> rowHitRate;   ///< per thread, shared run.
    std::vector<double> readLatency;  ///< per thread, bus cycles.
    std::uint64_t pagesMigrated = 0;
    std::uint64_t repartitions = 0;

    /**
     * DRAM protocol checker violations during the shared run, or -1
     * when the checker was not enabled for this configuration.
     */
    std::int64_t checkViolations = -1;
};

/**
 * Run @p mix under @p scheme on @p rc's hardware: the stateless
 * per-job simulation the campaign executor fans out. Trace seeds
 * derive from (rc.seedBase, mix.name, scheme.name) via jobSeed(), so
 * the result is a pure function of its arguments. Alone-run IPCs come
 * from @p baselines, which memoizes them thread-safely.
 */
MixResult runMixJob(const RunConfig &rc, const WorkloadMix &mix,
                    const Scheme &scheme,
                    AloneBaselineCache &baselines);

} // namespace dbpsim

#endif // DBPSIM_SIM_EXPERIMENT_HH
