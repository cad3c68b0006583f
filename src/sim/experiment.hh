/**
 * @file
 * Experiment harness: the two machine builders and the one mix-job
 * runner. buildMixMachine() builds a mix job's machine and traces,
 * buildAloneMachine() an application's alone machine; every job,
 * baseline, bank sweep, run digest and example builds through them.
 * runMixJob() runs a mix under a scheme, takes alone-run baselines
 * from a shared cache and computes the paper's metrics; every figure
 * campaign and experiment test builds on it.
 *
 * Thread-safety contract (the campaign layer depends on it):
 * runMixJob() is stateless and may be called concurrently from any
 * number of threads. The only shared mutable state is the
 * alone-baseline cache (see sim/baseline.hh), which synchronizes
 * internally, so one process never repeats an alone run.
 */

#ifndef DBPSIM_SIM_EXPERIMENT_HH
#define DBPSIM_SIM_EXPERIMENT_HH

#include <memory>
#include <string>
#include <vector>

#include "dram/energy.hh"
#include "sim/baseline.hh"
#include "sim/metrics.hh"
#include "sim/schemes.hh"
#include "sim/system.hh"
#include "trace/mix.hh"

namespace dbpsim {

/**
 * A built machine with the trace sources it runs. The sources are
 * declared first, so they outlive the System that reads them.
 */
struct JobMachine
{
    std::vector<std::unique_ptr<TraceSource>> sources;
    std::unique_ptr<System> system;
};

/**
 * The machine of @p mix under @p scheme on @p rc's hardware: the
 * scheme's scheduler and partition (applyScheme), one core per
 * application, and traces seeded by jobSeed(rc.seedBase, mix.name,
 * scheme.name) — stable names only, never submission order.
 */
JobMachine buildMixMachine(const RunConfig &rc, const WorkloadMix &mix,
                           const Scheme &scheme);

/**
 * @p app's alone machine on @p rc's hardware: one core, FR-FCFS, no
 * partition, one profiling interval spanning the whole run, and the
 * trace seeded by rc.seedBase * 31 + 7.
 */
JobMachine buildAloneMachine(const RunConfig &rc, const std::string &app);

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

    // Not in mixResultToJson(), whose output the golden pins and
    // hostbench's digests hash: campaigns write what they read.

    /** DRAM energy over the whole run, warm-up included, summed over
     *  the channels, with its ACT and READ + WRITE counts. */
    DramEnergyBreakdown energy;
    std::uint64_t activates = 0;
    std::uint64_t requests = 0;

    /** Per-thread P50 / P95 read latency in bus cycles. */
    std::vector<double> readLatencyP50;
    std::vector<double> readLatencyP95;
};

/**
 * Run @p mix under @p scheme on @p rc's hardware: the stateless
 * per-job simulation the campaign executor fans out, on the machine
 * buildMixMachine() builds, so the result is a pure function of its
 * arguments. Alone-run IPCs come from @p baselines, which memoizes
 * them thread-safely.
 */
MixResult runMixJob(const RunConfig &rc, const WorkloadMix &mix,
                    const Scheme &scheme,
                    AloneBaselineCache &baselines);

} // namespace dbpsim

#endif // DBPSIM_SIM_EXPERIMENT_HH
