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

void
CampaignRun::summary(const std::string &name, const std::string &value)
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
planMixSweep(CampaignPlan &plan, const std::vector<WorkloadMix> &mixes,
             const std::vector<Scheme> &schemes, MixFields fields)
{
    for (const auto &mix : mixes) {
        for (const auto &scheme : schemes) {
            plan.add(sweepKey("", mix.name, scheme.name),
                     [mix, scheme, fields](CampaignContext &ctx) {
                         MixResult r = runMixJob(ctx.config(), mix, scheme,
                                                 ctx.baselines());
                         Json j = mixResultToJson(r);
                         if (fields)
                             fields(j, r);
                         return j;
                     });
        }
    }
}

void
planMixSweep(CampaignPlan &plan, const RunConfig &rc,
             const std::string &prefix,
             const std::vector<WorkloadMix> &mixes,
             const std::vector<Scheme> &schemes)
{
    for (const auto &mix : mixes) {
        for (const auto &scheme : schemes) {
            plan.add(sweepKey(prefix, mix.name, scheme.name),
                     [rc, mix, scheme](CampaignContext &ctx) {
                         return mixResultToJson(runMixJob(
                             rc, mix, scheme, ctx.baselines()));
                     });
        }
    }
}

std::vector<double>
sweepColumn(const CampaignRun &run, const std::string &prefix,
            const std::vector<WorkloadMix> &mixes,
            const std::string &scheme, const std::string &field)
{
    std::vector<double> out;
    out.reserve(mixes.size());
    for (const auto &mix : mixes)
        out.push_back(run.num(sweepKey(prefix, mix.name, scheme),
                              field));
    return out;
}

void
printSweepMetric(CampaignRun &run, const std::string &prefix,
                 const std::vector<WorkloadMix> &mixes,
                 const std::vector<Scheme> &schemes,
                 const std::string &field, const std::string &title,
                 std::ostream &os)
{
    std::vector<std::string> headers{"workload"};
    for (const auto &s : schemes)
        headers.push_back(s.name);
    TextTable table(headers);

    for (const auto &mix : mixes) {
        table.beginRow();
        table.cell(mix.name);
        for (const auto &s : schemes)
            table.cell(run.num(sweepKey(prefix, mix.name, s.name),
                               field),
                       3);
    }
    table.beginRow();
    table.cell("gmean");
    for (const auto &s : schemes) {
        double g = geomean(
            sweepColumn(run, prefix, mixes, s.name, field));
        table.cell(g, 3);
        run.summary("gmean_" + field + "_" + prefix + s.name, g);
    }

    os << title << ":\n";
    table.print(os);
    os << '\n';
}

} // namespace dbpsim
