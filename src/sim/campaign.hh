/**
 * @file
 * The campaign layer: declarative, parallel experiment execution.
 *
 * A campaign is one of the paper's figures/tables expressed as data:
 * a name, a plan() that declares independent keyed jobs, and a
 * render() that reduces the finished job results into the printed
 * tables and summary metrics. The runner fans the jobs out over a
 * JobExecutor thread pool (see common/executor.hh), collects every
 * job's JSON result into its pre-assigned slot, and emits one result
 * document per campaign (per-run metrics + wall clock + config hash).
 *
 * Determinism contract: a job must be a pure function of the campaign
 * configuration and its own key — seeds via jobSeed(), baselines via
 * the shared AloneBaselineCache — so `--jobs=N` and `--serial`
 * produce byte-identical job results in any completion order.
 */

#ifndef DBPSIM_SIM_CAMPAIGN_HH
#define DBPSIM_SIM_CAMPAIGN_HH

#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "sim/experiment.hh"

namespace dbpsim {

class CampaignContext;

/**
 * Shared services for campaign jobs. Everything here is thread-safe;
 * a job receives the context and must not touch anything else that
 * mutates.
 */
class CampaignContext
{
  public:
    CampaignContext(RunConfig base,
                    std::shared_ptr<AloneBaselineCache> baselines);

    /** The campaign's base configuration. */
    const RunConfig &config() const { return config_; }

    /** The shared alone-run baseline cache. */
    AloneBaselineCache &baselines() { return *baselines_; }

  private:
    RunConfig config_;
    std::shared_ptr<AloneBaselineCache> baselines_;
};

/** One schedulable unit: a key and a pure result-producing function. */
struct CampaignJob
{
    std::string key;
    std::function<Json(CampaignContext &)> fn;
};

/**
 * The ordered job list a campaign declares. Keys must be unique; they
 * name the result slots, so declaration order — not completion
 * order — fixes the output layout.
 */
class CampaignPlan
{
  public:
    /** Declare one job. fatal()s on duplicate keys. */
    void add(std::string key, std::function<Json(CampaignContext &)> fn);

    const std::vector<CampaignJob> &jobs() const { return jobs_; }

  private:
    std::vector<CampaignJob> jobs_;
};

/**
 * A finished campaign, as render() sees it: every job's JSON result,
 * accessible by key, plus the configuration and a sink for summary
 * metrics that go into the emitted result document.
 */
class CampaignRun
{
  public:
    CampaignRun(RunConfig config,
                std::vector<std::pair<std::string, Json>> results);

    /** The campaign's base configuration. */
    const RunConfig &config() const { return config_; }

    /** Job result by key; fatal() when absent. */
    const Json &job(const std::string &key) const;

    /** Shorthand: numeric field @p field of job @p key. */
    double num(const std::string &key, const std::string &field) const;

    /** Record a summary metric (lands in the result JSON). */
    void summary(const std::string &name, double value);

    /** The accumulated summary object. */
    const Json &summaryJson() const { return summary_; }

    /** All job results as one JSON object (declaration order). */
    Json jobsJson() const;

  private:
    RunConfig config_;
    std::vector<std::pair<std::string, Json>> results_;
    Json summary_ = Json::object();
};

/**
 * One declarative figure/table campaign.
 */
struct CampaignSpec
{
    /** Registry key and result file stem ("fig4"). */
    std::string name;

    /** Human title, shown in the banner. */
    std::string title;

    /** Expected qualitative shape, printed after the tables. */
    std::string expect;

    /** Declare the jobs. */
    std::function<void(CampaignPlan &, CampaignContext &)> plan;

    /** Reduce finished results into tables + summary metrics. */
    std::function<void(CampaignRun &, std::ostream &)> render;
};

/** Execution options. */
struct CampaignOptions
{
    /** Worker threads; 1 = serial reference mode, 0 = hardware. */
    unsigned jobs = 1;

    /** Echo per-job completion lines (with job tags) to stderr. */
    bool progress = true;
};

/**
 * Execute @p spec: plan, fan out, render to @p os. Returns the full
 * result document (config hash, per-job results, summary metrics,
 * wall clock, parallelism).
 */
Json runCampaign(const CampaignSpec &spec, const RunConfig &rc,
                 std::shared_ptr<AloneBaselineCache> baselines,
                 const CampaignOptions &opts, std::ostream &os);

// ---- registry -------------------------------------------------------

/** Register a campaign (the bench TUs do this via CampaignRegistrar). */
void registerCampaign(CampaignSpec spec);

/** All registered campaigns, in natural name order (fig2 < fig10). */
std::vector<const CampaignSpec *> campaignRegistry();

/** Look up by name; nullptr when unknown. */
const CampaignSpec *findCampaign(const std::string &name);

/** Static registrar: `const CampaignRegistrar reg({...});` per TU. */
struct CampaignRegistrar
{
    explicit CampaignRegistrar(CampaignSpec spec)
    {
        registerCampaign(std::move(spec));
    }
};

// ---- shared building blocks for the figure campaigns ----------------

/** Hash of runConfigSignature(), the result document's config hash. */
std::uint64_t runConfigHash(const RunConfig &rc);

/** Serialize one MixResult (stable field order). */
Json mixResultToJson(const MixResult &r);

/** Job key for one (mix, scheme) point, optionally prefixed. */
std::string sweepKey(const std::string &prefix, const std::string &mix,
                     const std::string &scheme);

/**
 * One sweep of mix jobs: a runMixJob() per (mix, scheme) of @c mixes x
 * @c schemes on @c config, keyed sweepKey(prefix, mix, scheme). A
 * campaign builds each of its sweeps in one function that plan() and
 * render() both call, so a job is read back under the key it was
 * planned under.
 */
struct MixSweep
{
    RunConfig config;
    std::vector<WorkloadMix> mixes;
    std::vector<Scheme> schemes;

    /** Row label in the campaign's tables ("32", "darp"). */
    std::string label{};

    /** Key prefix ("32bk/"); empty for a campaign's only sweep. */
    std::string prefix{};
};

/** Fields a campaign adds to each job's mixResultToJson(). */
using MixFields = std::function<void(Json &job, const MixResult &r)>;

/**
 * Declare @p sweep's jobs in mix-major order, each written as
 * mixResultToJson() plus @p fields when given.
 */
void planMixSweep(CampaignPlan &plan, const MixSweep &sweep,
                  MixFields fields = nullptr);

/** The result of @p sweep's job for (@p mix, @p scheme). */
const Json &sweepJob(const CampaignRun &run, const MixSweep &sweep,
                     const std::string &mix, const std::string &scheme);

/**
 * Geometric mean of one metric ("ws" / "hs" / "ms" / ...) of one scheme
 * across the sweep's mixes.
 */
double sweepGmean(const CampaignRun &run, const MixSweep &sweep,
                  const std::string &scheme, const std::string &field);

/** Sum of one metric of one scheme across the sweep's mixes, in mix
 *  order ("pages_migrated", "acts", ...). */
double sweepSum(const CampaignRun &run, const MixSweep &sweep,
                const std::string &scheme, const std::string &field);

/**
 * Print one metric across a sweep: one row per mix, one column per
 * scheme, plus a geometric-mean summary row. Also records
 * "gmean_<field>_<prefix><scheme>" summary entries on @p run.
 */
void printSweepMetric(CampaignRun &run, const MixSweep &sweep,
                      const std::string &field,
                      const std::string &title, std::ostream &os);

/**
 * Print one metric's geometric means across several sweeps of the
 * same schemes: one row per sweep (its label, under @p corner), one
 * column per scheme. Records the same summary entries as
 * printSweepMetric().
 */
void printSweepGmeans(CampaignRun &run, const std::vector<MixSweep> &sweeps,
                      const std::string &field, const std::string &corner,
                      std::ostream &os);

} // namespace dbpsim

#endif // DBPSIM_SIM_CAMPAIGN_HH
