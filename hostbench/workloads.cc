#include "workloads.hh"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include "bench_common.hh"
#include "common/log.hh"
#include "sim/baseline.hh"
#include "sim/campaign.hh"
#include "sim/system.hh"
#include "trace/spec_profiles.hh"
#include "reference.hh"
#include "traced_system.hh"

namespace hostbench {

using namespace dbpsim;

namespace {

RunConfig
runConfig(std::uint64_t seed, const std::vector<std::string> &tokens)
{
    Config cfg;
    for (const auto &t : tokens)
        cfg.parseToken(t);
    cfg.set("seed", std::to_string(seed));
    return bench::makeRunConfig(cfg);
}

std::vector<WorkloadMix>
mixes(std::initializer_list<const char *> names)
{
    std::vector<WorkloadMix> out;
    for (const char *n : names)
        out.push_back(mixByName(n));
    return out;
}

/** The four schemes of claims C1 (UBP, DBP) and C2 (TCM, DBP-TCM). */
std::vector<Scheme>
claimSchemes()
{
    return {schemeByName("UBP"), schemeByName("DBP"), schemeByName("TCM"),
            schemeByName("DBP-TCM")};
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
            static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/** Alone-run machine, exactly as dbpsim::runAloneBaseline builds it. */
SystemParams
aloneParams(const RunConfig &rc)
{
    SystemParams params = rc.base;
    params.numCores = 1;
    params.scheduler = "fr-fcfs";
    params.partition = "none";
    params.profileIntervalCpu = rc.warmupCpu + rc.measureCpu +
        1'000'000'000ULL;
    return params;
}

/** Record one job result: checks, duplicate detection, result map. */
void
recordJob(RepResult &rep, DuplicateJobDetector &dups, std::uint64_t hash,
          const std::string &key, const Json &job)
{
    ++rep.jobs;
    std::string problem = checkJobResult(job);
    std::uint64_t mismatches = dups.mismatches();
    if (dups.record(hash, key, job.dump())) {
        ++rep.duplicates;
        if (problem.empty() && dups.mismatches() > mismatches)
            problem = "differs from the earlier run of the same job";
    } else {
        rep.results.set(key, job);
    }
    if (!problem.empty()) {
        ++rep.failed;
        rep.problems.push_back(key + ": " + problem);
    }
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "mix_intensive", "mix_light", "refresh_salp_churn",
        "campaign_overlap"};
    return names;
}

bool
makeWorkload(const std::string &name, std::uint64_t seed, Workload &w)
{
    // The mix window puts the first 500 k-cycle interval boundary inside
    // the measured window. Shorter windows elsewhere buy more passes per
    // run: refresh_salp_churn costs twice as much per cycle (its 125 k
    // interval still gives four boundaries, enough for DBP to repartition
    // and migrate pages) and campaign_overlap runs 204 jobs.
    const std::vector<std::string> mix_window = {"warmup=250000",
                                                 "measure=500000"};
    w = Workload{};
    w.name = name;
    if (name == "mix_intensive") {
        w.rc = runConfig(seed, mix_window);
        w.mixes = mixes({"W10", "W11", "W12"});
        w.schemes = claimSchemes();
    } else if (name == "mix_light") {
        w.rc = runConfig(seed, mix_window);
        w.mixes = mixes({"W01", "W02", "W03"});
        w.schemes = claimSchemes();
    } else if (name == "refresh_salp_churn") {
        w.rc = runConfig(seed, {"warmup=200000", "measure=400000",
                                "refresh=perbank", "refresh_aware=1",
                                "salp=salp2", "migration=eager",
                                "interval=125000", "check=1"});
        w.mixes = mixes({"W04", "W08"});
        w.schemes = claimSchemes();
    } else if (name == "campaign_overlap") {
        w.rc = runConfig(seed, {"warmup=50000", "measure=100000"});
        w.mixes = standardMixes();
        w.campaigns = {"fig4", "fig5", "fig6", "fig7", "fig9"};
        w.workers = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    } else {
        return false;
    }
    return true;
}

std::vector<Job>
plannedJobs(const Workload &w)
{
    std::vector<Job> jobs;
    if (w.campaigns.empty()) {
        for (const auto &mix : w.mixes)
            for (const auto &scheme : w.schemes)
                jobs.push_back({sweepKey("", mix.name, scheme.name), mix,
                                scheme});
        return jobs;
    }
    // The overlap campaigns all sweep "<mix>/<scheme>" keys on the base
    // configuration; the key names the job.
    CampaignContext ctx(w.rc, std::make_shared<AloneBaselineCache>());
    for (const auto &name : w.campaigns) {
        CampaignPlan plan;
        findCampaign(name)->plan(plan, ctx);
        for (const auto &job : plan.jobs()) {
            auto slash = job.key.find('/');
            if (slash == std::string::npos)
                fatal("hostbench: campaign job key '", job.key,
                      "' is not <mix>/<scheme>");
            jobs.push_back({job.key, mixByName(job.key.substr(0, slash)),
                            schemeByName(job.key.substr(slash + 1))});
        }
    }
    return jobs;
}

std::vector<Job>
uniqueJobs(const Workload &w)
{
    std::vector<Job> out;
    std::set<std::string> seen;
    for (auto &job : plannedJobs(w))
        if (seen.insert(job.key).second)
            out.push_back(std::move(job));
    return out;
}

std::vector<std::string>
aloneApps(const Workload &w)
{
    std::set<std::string> apps;
    for (const auto &job : plannedJobs(w))
        apps.insert(job.mix.apps.begin(), job.mix.apps.end());
    return {apps.begin(), apps.end()};
}

bool
DuplicateJobDetector::record(std::uint64_t config_hash,
                             const std::string &key, const std::string &json)
{
    auto [it, fresh] = seen_.emplace(std::make_pair(config_hash, key), json);
    if (fresh)
        return false;
    ++duplicates_;
    if (it->second != json)
        ++mismatches_;
    return true;
}

double
gmeanRatioPct(const std::vector<double> &a, const std::vector<double> &b)
{
    return 100.0 * geomean(b) / geomean(a);
}

std::string
checkJobResult(const Json &job)
{
    const Json *v = job.find("check_violations");
    if (v && v->asInt() > 0)
        return std::to_string(v->asInt()) + " protocol violation(s)";

    const Json &alone = job.at("alone_ipc");
    const Json &shared = job.at("shared_ipc");
    if (alone.size() == 0 || alone.size() != shared.size())
        return "alone/shared IPC vectors malformed";
    double ws = 0.0, ms = 0.0;
    for (std::size_t i = 0; i < alone.size(); ++i) {
        double a = alone.at(i).asDouble(), s = shared.at(i).asDouble();
        if (!(a > 0.0) || !(s > 0.0) || !std::isfinite(a) ||
            !std::isfinite(s))
            return "non-positive IPC";
        ws += s / a;
        ms = std::max(ms, a / s);
    }
    auto near = [](double x, double y) {
        return std::abs(x - y) <= 1e-9 * std::max(1.0, std::abs(y));
    };
    if (!near(job.at("ws").asDouble(), ws))
        return "weighted speedup inconsistent with its IPCs";
    if (!near(job.at("ms").asDouble(), ms))
        return "max slowdown inconsistent with its IPCs";
    return "";
}

std::map<std::string, double>
simulatedMetrics(const Workload &w, const Json &results)
{
    auto column = [&](const char *scheme, const char *field) {
        std::vector<double> out;
        for (const auto &mix : w.mixes)
            out.push_back(results.at(sweepKey("", mix.name, scheme))
                              .at(field)
                              .asDouble());
        return out;
    };
    return {
        {"ws_dbp_vs_ubp_pct",
         gmeanRatioPct(column("UBP", "ws"), column("DBP", "ws"))},
        {"ms_dbp_vs_ubp_pct",
         gmeanRatioPct(column("UBP", "ms"), column("DBP", "ms"))},
        {"ws_dbptcm_vs_tcm_pct",
         gmeanRatioPct(column("TCM", "ws"), column("DBP-TCM", "ws"))},
        {"ms_dbptcm_vs_tcm_pct",
         gmeanRatioPct(column("TCM", "ms"), column("DBP-TCM", "ms"))},
    };
}

std::string
resultDigest(const Json &jobs, const Json &summary)
{
    std::ostringstream os;
    os << "0x" << std::hex << hashString(jobs.dump() + summary.dump());
    return os.str();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
refAround(const RepResult &rep, std::size_t s)
{
    double after =
        s + 1 < rep.stages.size() ? rep.stages[s + 1].ref : rep.refAfter;
    return 0.5 * (rep.stages[s].ref + after);
}

double
normalizedTotal(const std::vector<RepResult> &reps,
                double StageTime::*field)
{
    double total = 0.0;
    for (std::size_t s = 0; s < reps.front().stages.size(); ++s) {
        std::vector<double> v;
        for (const auto &rep : reps)
            v.push_back(rep.stages.at(s).*field / refAround(rep, s));
        total += median(std::move(v));
    }
    return total * kReferenceNominalS;
}

RepResult
runRep(const Workload &w)
{
    RepResult rep;
    DuplicateJobDetector dups;
    const std::uint64_t hash = runConfigHash(w.rc);
    const double window =
        static_cast<double>(w.rc.warmupCpu + w.rc.measureCpu);

    // Times one stage of the pass into rep.stages, after a reference run
    // that gauges the host's speed just before it.
    auto stage = [&rep](auto &&fn) {
        double ref = referenceSeconds();
        double cpu0 = cpuSeconds();
        auto t0 = std::chrono::steady_clock::now();
        fn();
        rep.stages.push_back({secondsSince(t0), cpuSeconds() - cpu0, ref});
        rep.wallS += rep.stages.back().wall;
        rep.cpuS += rep.stages.back().cpu;
    };

    // The cache is fresh, so every get() computes.
    auto cache = std::make_shared<AloneBaselineCache>();
    stage([&] {
        for (const auto &app : aloneApps(w))
            cache->get(w.rc, app);
    });
    rep.aloneS = rep.wallS;

    double cores = 0.0;
    if (w.campaigns.empty()) {
        for (const auto &mix : w.mixes) {
            for (const auto &scheme : w.schemes) {
                MixResult r;
                stage([&] { r = runMixJob(w.rc, mix, scheme, *cache); });
                rep.jobSecondsTotal += rep.stages.back().wall;
                cores += static_cast<double>(mix.apps.size());
                recordJob(rep, dups, hash,
                          sweepKey("", mix.name, scheme.name),
                          mixResultToJson(r));
            }
        }
        rep.digests.emplace_back(
            w.name, resultDigest(rep.results, Json::object()));
    } else {
        CampaignOptions opts;
        opts.jobs = w.workers;
        opts.progress = false;
        for (const auto &name : w.campaigns) {
            std::ostringstream sink;
            Json doc;
            stage([&] {
                doc = runCampaign(*findCampaign(name), w.rc, cache, opts,
                                  sink);
            });
            rep.jobSecondsTotal += doc.at("job_seconds_total").asDouble();
            for (const auto &[key, job] : doc.at("jobs").members()) {
                cores += static_cast<double>(job.at("shared_ipc").size());
                recordJob(rep, dups, hash, key, job);
            }
            rep.digests.emplace_back(
                name, resultDigest(doc.at("jobs"), doc.at("summary")));
        }
    }
    rep.refAfter = referenceSeconds();
    rep.aloneComputed = cache->computeCount();
    rep.coreCycles =
        (cores + static_cast<double>(rep.aloneComputed)) * window;
    return rep;
}

double
setupPass(const Workload &w)
{
    auto t0 = std::chrono::steady_clock::now();
    for (const auto &job : plannedJobs(w)) {
        auto owned = jobSources(w.rc, job.mix, job.scheme);
        System sys(jobParams(w.rc, job.mix, job.scheme), rawSources(owned));
    }
    for (const auto &app : aloneApps(w)) {
        auto source = makeSpecSource(app, w.rc.seedBase * 31 + 7);
        std::vector<TraceSource *> sources{source.get()};
        System sys(aloneParams(w.rc), sources);
    }
    return secondsSince(t0);
}

} // namespace hostbench
