#include "sim/baseline.hh"

#include <sstream>
#include <vector>

#include "common/log.hh"
#include "part/policy.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"
#include "trace/spec_profiles.hh"

namespace dbpsim {

std::uint64_t
hashString(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : s) {
        h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t
jobSeed(std::uint64_t seed_base, const std::string &mix,
        const std::string &scheme)
{
    // Mix SplitMix64-style so nearby seed bases stay uncorrelated.
    std::uint64_t z = seed_base + 0x9e3779b97f4a7c15ULL;
    z ^= hashString(mix);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z ^= hashString(scheme);
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

AloneBaseline
runAloneBaseline(const RunConfig &rc, const std::string &app)
{
    SystemParams params = rc.base;
    params.numCores = 1;
    params.scheduler = "fr-fcfs";
    params.partition = "none";
    // One profiling interval covering exactly the full run, closed
    // explicitly at the end, so the alone profile summarizes the whole
    // execution.
    params.profileIntervalCpu = rc.warmupCpu + rc.measureCpu +
        1'000'000'000ULL;

    auto source = makeSpecSource(app, rc.seedBase * 31 + 7);
    std::vector<TraceSource *> sources{source.get()};
    System system(params, sources);
    std::vector<double> ipc = system.runAndMeasure(rc.warmupCpu,
                                                   rc.measureCpu);
    requireMeasuredIpc(rc, "alone " + app, {app}, ipc);
    system.closeIntervalNow();

    AloneBaseline out;
    out.ipc = ipc.at(0);
    out.profile = system.lastIntervalProfiles().at(0);
    return out;
}

void
requireMeasuredIpc(const RunConfig &rc, const std::string &job,
                   const std::vector<std::string> &apps,
                   const std::vector<double> &ipc)
{
    for (std::size_t t = 0; t < ipc.size(); ++t)
        if (ipc[t] == 0.0)
            fatal("job ", job, ": thread ", t, " (", apps.at(t),
                  ") retired no instruction in the measured window of ",
                  rc.measureCpu, " CPU cycles after ", rc.warmupCpu,
                  " of warmup; lengthen measure= so every thread "
                  "retires at least one");
}

double
aloneIpcWithBanks(const RunConfig &rc, const std::string &app,
                  unsigned banks)
{
    SystemParams params = rc.base;
    params.numCores = 1;
    params.scheduler = "fr-fcfs";
    params.partition = "none";

    auto source = makeSpecSource(app, rc.seedBase * 31 + 7);
    std::vector<TraceSource *> raw{source.get()};
    System sys(params, raw);
    sys.osMemory().setColorSet(0, bankSweepColors(params, banks));
    return sys.runAndMeasure(rc.warmupCpu, rc.measureCpu).at(0);
}

std::vector<unsigned>
bankSweepColors(const SystemParams &params, unsigned banks)
{
    // Under subarray coloring each bank owns `subarrays` consecutive
    // colors of the spread order.
    const unsigned subarrays =
        params.subarrayColoring ? params.geometry.subarraysPerBank : 1;
    const ColorLayout layout(params.geometry.channels,
                             params.geometry.ranksPerChannel,
                             params.geometry.banksPerRank, subarrays);
    DBP_ASSERT(banks >= 1 && banks <= layout.banks(),
               "bank count out of range");
    const std::vector<unsigned> &order = layout.spread();
    return {order.begin(), order.begin() + banks * subarrays};
}

namespace {

std::string
cacheKey(const RunConfig &rc, const std::string &app)
{
    std::ostringstream os;
    os << app << '@' << std::hex << hashString(aloneRunSignature(rc));
    return os.str();
}

} // namespace

AloneBaseline
AloneBaselineCache::get(const RunConfig &rc, const std::string &app)
{
    const std::string key = cacheKey(rc, app);

    std::shared_future<AloneBaseline> future;
    bool compute = false;
    std::promise<AloneBaseline> promise;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            future = it->second;
        } else {
            future = promise.get_future().share();
            entries_.emplace(key, future);
            compute = true;
        }
    }

    if (compute) {
        // Simulate outside the lock: other apps' baselines proceed in
        // parallel; same-key requests wait on the shared future.
        try {
            promise.set_value(runAloneBaseline(rc, app));
        } catch (...) {
            promise.set_exception(std::current_exception());
        }
    }
    return future.get();
}

std::uint64_t
AloneBaselineCache::computeCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

} // namespace dbpsim
