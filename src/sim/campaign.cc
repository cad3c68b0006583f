#include "sim/campaign.hh"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <sstream>

#include "common/executor.hh"
#include "common/log.hh"
#include "common/table.hh"

namespace dbpsim {

// ---- context --------------------------------------------------------

CampaignContext::CampaignContext(
    RunConfig base, std::shared_ptr<AloneBaselineCache> baselines)
    : config_(std::move(base)), baselines_(std::move(baselines))
{
    DBP_ASSERT(baselines_ != nullptr, "campaign needs a baseline cache");
}

// ---- plan -----------------------------------------------------------

void
CampaignPlan::add(std::string key,
                  std::function<Json(CampaignContext &)> fn)
{
    DBP_ASSERT(fn != nullptr, "campaign job needs a function");
    for (const auto &j : jobs_)
        if (j.key == key)
            fatal("campaign: duplicate job key '", key, "'");
    jobs_.push_back({std::move(key), std::move(fn)});
}

// ---- run ------------------------------------------------------------

CampaignRun::CampaignRun(
    RunConfig config, std::vector<std::pair<std::string, Json>> results)
    : config_(std::move(config)), results_(std::move(results))
{
}

const Json &
CampaignRun::job(const std::string &key) const
{
    for (const auto &r : results_)
        if (r.first == key)
            return r.second;
    fatal("campaign: no job result '", key, "'");
}

double
CampaignRun::num(const std::string &key, const std::string &field) const
{
    return job(key).at(field).asDouble();
}

void
CampaignRun::summary(const std::string &name, double value)
{
    summary_.set(name, value);
}

Json
CampaignRun::jobsJson() const
{
    Json jobs = Json::object();
    for (const auto &r : results_)
        jobs.set(r.first, r.second);
    return jobs;
}

// ---- registry -------------------------------------------------------

namespace {

std::vector<CampaignSpec> &
mutableRegistry()
{
    static std::vector<CampaignSpec> registry;
    return registry;
}

/** Natural comparison so fig2 sorts before fig10. */
bool
naturalLess(const std::string &a, const std::string &b)
{
    std::size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
        bool da = std::isdigit(static_cast<unsigned char>(a[i])) != 0;
        bool db = std::isdigit(static_cast<unsigned char>(b[j])) != 0;
        if (da && db) {
            std::size_t ia = i, jb = j;
            while (ia < a.size() &&
                   std::isdigit(static_cast<unsigned char>(a[ia])))
                ++ia;
            while (jb < b.size() &&
                   std::isdigit(static_cast<unsigned char>(b[jb])))
                ++jb;
            unsigned long va = std::stoul(a.substr(i, ia - i));
            unsigned long vb = std::stoul(b.substr(j, jb - j));
            if (va != vb)
                return va < vb;
            i = ia;
            j = jb;
        } else {
            if (a[i] != b[j])
                return a[i] < b[j];
            ++i;
            ++j;
        }
    }
    return a.size() < b.size();
}

} // namespace

void
registerCampaign(CampaignSpec spec)
{
    DBP_ASSERT(!spec.name.empty(), "campaign needs a name");
    DBP_ASSERT(spec.plan && spec.render,
               "campaign needs plan and render");
    for (const auto &s : mutableRegistry())
        if (s.name == spec.name)
            fatal("campaign '", spec.name, "' registered twice");
    mutableRegistry().push_back(std::move(spec));
}

std::vector<const CampaignSpec *>
campaignRegistry()
{
    std::vector<const CampaignSpec *> out;
    for (const auto &s : mutableRegistry())
        out.push_back(&s);
    std::sort(out.begin(), out.end(),
              [](const CampaignSpec *a, const CampaignSpec *b) {
                  return naturalLess(a->name, b->name);
              });
    return out;
}

const CampaignSpec *
findCampaign(const std::string &name)
{
    for (const auto &s : mutableRegistry())
        if (s.name == name)
            return &s;
    return nullptr;
}

// ---- signature / serialization --------------------------------------

std::uint64_t
runConfigHash(const RunConfig &rc)
{
    return hashString(runConfigSignature(rc));
}

Json
mixResultToJson(const MixResult &r)
{
    Json j = Json::object();
    j.set("mix", r.mixName);
    j.set("scheme", r.schemeName);
    j.set("ws", r.metrics.weightedSpeedup);
    j.set("hs", r.metrics.harmonicSpeedup);
    j.set("ms", r.metrics.maxSlowdown);

    j.set("speedups", Json::array(r.metrics.speedups));
    j.set("slowdowns", Json::array(r.metrics.slowdowns));
    j.set("alone_ipc", Json::array(r.aloneIpc));
    j.set("shared_ipc", Json::array(r.sharedIpc));
    j.set("row_hit_rate", Json::array(r.rowHitRate));
    j.set("read_latency_bus", Json::array(r.readLatency));
    j.set("pages_migrated", r.pagesMigrated);
    j.set("repartitions", r.repartitions);
    j.set("check_violations", r.checkViolations);
    return j;
}

// ---- execution ------------------------------------------------------

Json
runCampaign(const CampaignSpec &spec, const RunConfig &rc,
            std::shared_ptr<AloneBaselineCache> baselines,
            const CampaignOptions &opts, std::ostream &os)
{
    auto wall_start = std::chrono::steady_clock::now();

    CampaignContext ctx(rc, std::move(baselines));
    CampaignPlan plan;
    spec.plan(plan, ctx);

    const auto &jobs = plan.jobs();
    std::vector<std::pair<std::string, Json>> results(jobs.size());

    std::vector<std::function<void()>> tasks;
    tasks.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        tasks.push_back([&, i] {
            LogJobScope tag(spec.name + ":" + jobs[i].key);
            // Each task owns slot i exclusively; the executor's join
            // publishes all slots before the render below reads them.
            results[i] = {jobs[i].key, jobs[i].fn(ctx)};
            if (opts.progress)
                std::fprintf(stderr, "  [%s %s]\n", spec.name.c_str(),
                             jobs[i].key.c_str());
        });
    }

    JobExecutor executor(opts.jobs);
    std::vector<double> job_seconds = executor.run(tasks);

    CampaignRun run(rc, std::move(results));
    spec.render(run, os);
    if (!spec.expect.empty())
        os << "\n" << spec.expect << "\n";

    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - wall_start)
                      .count();
    double job_total = 0.0;
    for (double s : job_seconds)
        job_total += s;

    Json config = Json::object();
    config.set("machine", rc.base.summary());
    config.set("warmup_cpu", rc.warmupCpu);
    config.set("measure_cpu", rc.measureCpu);
    config.set("seed_base", rc.seedBase);
    {
        std::ostringstream hex;
        hex << "0x" << std::hex << runConfigHash(rc);
        config.set("hash", hex.str());
    }

    Json doc = Json::object();
    doc.set("campaign", spec.name);
    doc.set("title", spec.title);
    doc.set("config", std::move(config));
    doc.set("jobs_count", static_cast<std::uint64_t>(jobs.size()));
    doc.set("parallelism", executor.threads());
    doc.set("jobs", run.jobsJson());
    doc.set("summary", run.summaryJson());
    doc.set("wall_seconds", wall);
    doc.set("job_seconds_total", job_total);
    return doc;
}

// ---- sweep helpers --------------------------------------------------

std::string
sweepKey(const std::string &prefix, const std::string &mix,
         const std::string &scheme)
{
    return prefix + mix + "/" + scheme;
}

void
planMixSweep(CampaignPlan &plan, const MixSweep &sweep, MixFields fields)
{
    for (const auto &mix : sweep.mixes) {
        for (const auto &scheme : sweep.schemes) {
            plan.add(sweepKey(sweep.prefix, mix.name, scheme.name),
                     [rc = sweep.config, mix, scheme,
                      fields](CampaignContext &ctx) {
                         MixResult r =
                             runMixJob(rc, mix, scheme, ctx.baselines());
                         Json j = mixResultToJson(r);
                         if (fields)
                             fields(j, r);
                         return j;
                     });
        }
    }
}

const Json &
sweepJob(const CampaignRun &run, const MixSweep &sweep,
         const std::string &mix, const std::string &scheme)
{
    return run.job(sweepKey(sweep.prefix, mix, scheme));
}

namespace {

/** One metric of one scheme across the sweep's mixes, in mix order. */
std::vector<double>
sweepColumn(const CampaignRun &run, const MixSweep &sweep,
            const std::string &scheme, const std::string &field)
{
    std::vector<double> out;
    out.reserve(sweep.mixes.size());
    for (const auto &mix : sweep.mixes)
        out.push_back(
            sweepJob(run, sweep, mix.name, scheme).at(field).asDouble());
    return out;
}

} // namespace

double
sweepGmean(const CampaignRun &run, const MixSweep &sweep,
           const std::string &scheme, const std::string &field)
{
    return geomean(sweepColumn(run, sweep, scheme, field));
}

double
sweepSum(const CampaignRun &run, const MixSweep &sweep,
         const std::string &scheme, const std::string &field)
{
    double sum = 0.0;
    for (double v : sweepColumn(run, sweep, scheme, field))
        sum += v;
    return sum;
}

namespace {

/** sweepGmean(), recorded as "gmean_<field>_<prefix><scheme>". */
double
recordSweepGmean(CampaignRun &run, const MixSweep &sweep,
                 const std::string &scheme, const std::string &field)
{
    double g = sweepGmean(run, sweep, scheme, field);
    run.summary("gmean_" + field + "_" + sweep.prefix + scheme, g);
    return g;
}

} // namespace

void
printSweepMetric(CampaignRun &run, const MixSweep &sweep,
                 const std::string &field, const std::string &title,
                 std::ostream &os)
{
    std::vector<std::string> headers{"workload"};
    for (const auto &s : sweep.schemes)
        headers.push_back(s.name);
    TextTable table(headers);

    for (const auto &mix : sweep.mixes) {
        table.beginRow();
        table.cell(mix.name);
        for (const auto &s : sweep.schemes)
            table.cell(
                sweepJob(run, sweep, mix.name, s.name).at(field).asDouble(),
                3);
    }
    table.beginRow();
    table.cell("gmean");
    for (const auto &s : sweep.schemes)
        table.cell(recordSweepGmean(run, sweep, s.name, field), 3);

    os << title << ":\n";
    table.print(os);
    os << '\n';
}

void
printSweepGmeans(CampaignRun &run, const std::vector<MixSweep> &sweeps,
                 const std::string &field, const std::string &corner,
                 std::ostream &os)
{
    DBP_ASSERT(!sweeps.empty(), "a gmean table needs a sweep");
    std::vector<std::string> headers{corner};
    for (const auto &s : sweeps.front().schemes)
        headers.push_back(s.name);
    TextTable table(headers);

    for (const auto &sweep : sweeps) {
        table.beginRow();
        table.cell(sweep.label);
        for (const auto &s : sweeps.front().schemes)
            table.cell(recordSweepGmean(run, sweep, s.name, field), 3);
    }
    table.print(os);
    os << '\n';
}

} // namespace dbpsim
