/**
 * @file
 * The benchmark's workloads and the untraced pass over a workload's
 * job list: alone baselines, every job through the simulator's public
 * API (runMixJob / runCampaign), and the checks on every result.
 */

#ifndef HOSTBENCH_WORKLOADS_HH
#define HOSTBENCH_WORKLOADS_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "sim/experiment.hh"

namespace hostbench {

/** One workload: a configuration and either a job list or campaigns. */
struct Workload
{
    std::string name;
    dbpsim::RunConfig rc;
    std::vector<dbpsim::WorkloadMix> mixes;   ///< job list: mixes x
    std::vector<dbpsim::Scheme> schemes;      ///< schemes, serial.
    std::vector<std::string> campaigns;       ///< or whole campaigns.
    unsigned workers = 1;
};

/** Workload names, in the order the README describes them. */
const std::vector<std::string> &workloadNames();

/** Build workload @p name with trace seed base @p seed; false if unknown. */
bool makeWorkload(const std::string &name, std::uint64_t seed,
                  Workload &out);

/** One (mix, scheme) job under its result key. */
struct Job
{
    std::string key;
    dbpsim::WorkloadMix mix;
    dbpsim::Scheme scheme;
};

/** Every job a pass runs, duplicates across campaigns included. */
std::vector<Job> plannedJobs(const Workload &w);

/** The distinct jobs, in first-planned order. */
std::vector<Job> uniqueJobs(const Workload &w);

/** Applications whose alone baselines the workload needs (sorted). */
std::vector<std::string> aloneApps(const Workload &w);

/**
 * Finds jobs whose (configuration, key) already ran in this process,
 * and checks that a repeat produced byte-identical result JSON.
 */
class DuplicateJobDetector
{
  public:
    /** Record one result; true if its key was already seen. */
    bool record(std::uint64_t config_hash, const std::string &key,
                const std::string &json);

    std::uint64_t duplicates() const { return duplicates_; }
    std::uint64_t mismatches() const { return mismatches_; }

  private:
    std::map<std::pair<std::uint64_t, std::string>, std::string> seen_;
    std::uint64_t duplicates_ = 0;
    std::uint64_t mismatches_ = 0;
};

/** 100 x gmean(@p b) / gmean(@p a): b as a percentage of a. */
double gmeanRatioPct(const std::vector<double> &a,
                     const std::vector<double> &b);

/** What is wrong with one job's result JSON; empty when nothing. */
std::string checkJobResult(const dbpsim::Json &job);

/**
 * The simulated end-to-end metrics (C1 and C2 ratios) over the
 * workload's mixes, from job results keyed "<mix>/<scheme>".
 */
std::map<std::string, double> simulatedMetrics(const Workload &w,
                                               const dbpsim::Json &results);

/** Host time of one stage of a pass. */
struct StageTime
{
    double wall = 0.0;
    double cpu = 0.0;
    double ref = 0.0; ///< reference run just before the stage.
};

/** One untraced pass over a workload's job list. */
struct RepResult
{
    /** Alone baselines, then each job (or each campaign), in order. */
    std::vector<StageTime> stages;
    double refAfter = 0.0; ///< reference run after the last stage.
    double wallS = 0.0; ///< sum of the stages.
    double cpuS = 0.0;
    double aloneS = 0.0;          ///< alone baselines computed.
    double jobSecondsTotal = 0.0; ///< summed per-job host time.
    double coreCycles = 0.0;      ///< cores x CPU cycles simulated.
    std::uint64_t aloneComputed = 0;
    std::uint64_t jobs = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t failed = 0;
    dbpsim::Json results = dbpsim::Json::object(); ///< distinct jobs.
    std::vector<std::pair<std::string, std::string>> digests;
    std::vector<std::string> problems;
};

/** Median of @p v (the mean of the middle two for an even count). */
double median(std::vector<double> v);

/** Reference seconds around stage @p s of @p rep: the runs on either side. */
double refAround(const RepResult &rep, std::size_t s);

/**
 * Normalized host seconds of the job list: for each stage, the median
 * over passes of its @p field time in reference runs, summed over
 * stages and scaled by kReferenceNominalS.
 */
double normalizedTotal(const std::vector<RepResult> &reps,
                       double StageTime::*field);

/** Run the workload once, checking every result. */
RepResult runRep(const Workload &w);

/**
 * Host seconds of everything before the first simulated cycle: plan
 * the campaigns, build every job's (and alone run's) trace sources and
 * machine.
 */
double setupPass(const Workload &w);

/** The dbpsim_bench result digest of a jobs + summary document. */
std::string resultDigest(const dbpsim::Json &jobs,
                         const dbpsim::Json &summary);

} // namespace hostbench

#endif // HOSTBENCH_WORKLOADS_HH
