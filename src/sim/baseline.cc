#include "sim/baseline.hh"

#include <chrono>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "common/json.hh"
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

    auto order = channelSpreadColorOrder(params.geometry.channels,
                                         params.geometry.ranksPerChannel,
                                         params.geometry.banksPerRank);
    DBP_ASSERT(banks >= 1 && banks <= order.size(),
               "bank count out of range");
    std::vector<unsigned> colors(order.begin(), order.begin() + banks);
    sys.osMemory().setColorSet(0, colors);

    return sys.runAndMeasure(rc.warmupCpu, rc.measureCpu).at(0);
}

namespace {

std::string
cacheKey(const RunConfig &rc, const std::string &app)
{
    std::ostringstream os;
    os << app << '@' << std::hex << hashString(aloneRunSignature(rc));
    return os.str();
}

Json
profileToJson(const ThreadMemProfile &p)
{
    Json j = Json::object();
    j.set("mpki", p.mpki);
    j.set("row_hit_rate", p.rowBufferHitRate);
    j.set("blp", p.blp);
    j.set("mlp", p.mlp);
    j.set("row_parallelism", p.rowParallelism);
    j.set("requests", p.requests);
    j.set("instructions", p.instructions);
    j.set("footprint_pages", p.footprintPages);
    return j;
}

/** Read number member @p key of @p j into @p out; false when @p j is
 *  not an object or the member is absent or not a number. */
bool
readNumber(const Json &j, const char *key, double &out)
{
    const Json *v = j.find(key);
    if (!v || v->type() != Json::Type::Number)
        return false;
    out = v->asDouble();
    return true;
}

/** readNumber() for a count: also false outside [0, 2^64). */
bool
readCount(const Json &j, const char *key, std::uint64_t &out)
{
    double v = 0.0;
    if (!readNumber(j, key, v) || !(v >= 0.0 && v < 0x1p64))
        return false;
    out = static_cast<std::uint64_t>(v);
    return true;
}

/** One cache entry, or nothing when any member is missing or of the
 *  wrong type. Never fatal(): the file comes from outside. */
std::optional<AloneBaseline>
baselineFromJson(const Json &j)
{
    AloneBaseline b;
    ThreadMemProfile &p = b.profile;
    const Json *profile = j.find("profile");
    if (!profile || !readNumber(j, "ipc", b.ipc) ||
        !readNumber(*profile, "mpki", p.mpki) ||
        !readNumber(*profile, "row_hit_rate", p.rowBufferHitRate) ||
        !readNumber(*profile, "blp", p.blp) ||
        !readNumber(*profile, "mlp", p.mlp) ||
        !readNumber(*profile, "row_parallelism", p.rowParallelism) ||
        !readCount(*profile, "requests", p.requests) ||
        !readCount(*profile, "instructions", p.instructions) ||
        !readCount(*profile, "footprint_pages", p.footprintPages))
        return std::nullopt;
    return b;
}

// v2: keys hash the parameter table's hardware and run rows; v1 keys
// missed the subarray keys, so v1 files are dropped, not merged.
constexpr const char *kCacheFormat = "dbpsim-alone-cache-v2";

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
            ++computed_;
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

bool
AloneBaselineCache::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::stringstream buf;
    buf << in.rdbuf();

    std::string error;
    Json root = Json::parse(buf.str(), &error);
    if (!error.empty() || root.type() != Json::Type::Object) {
        warn("alone cache ", path, " unreadable (", error,
             "); ignoring");
        return false;
    }
    const Json *format = root.find("format");
    if (!format || format->type() != Json::Type::String ||
        format->asString() != kCacheFormat) {
        warn("alone cache ", path, " has unknown format; ignoring");
        return false;
    }
    const Json *entries = root.find("entries");
    if (!entries || entries->type() != Json::Type::Object) {
        warn("alone cache ", path, " has no entries object; ignoring");
        return false;
    }

    // Check every entry before merging any, so a bad file adds nothing.
    std::vector<std::pair<std::string, AloneBaseline>> parsed;
    for (const auto &m : entries->members()) {
        std::optional<AloneBaseline> b = baselineFromJson(m.second);
        if (!b) {
            warn("alone cache ", path, " entry '", m.first,
                 "' is malformed; ignoring the file");
            return false;
        }
        parsed.emplace_back(m.first, *b);
    }

    std::size_t merged = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &[key, b] : parsed) {
            std::promise<AloneBaseline> p;
            p.set_value(b);
            if (entries_.emplace(key, p.get_future().share()).second)
                ++merged;
        }
    }
    inform("alone cache: loaded ", merged, " baseline(s) from ", path);
    return true;
}

bool
AloneBaselineCache::save(const std::string &path) const
{
    Json entries = Json::object();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &e : entries_) {
            // Only persist completed computations; an in-flight entry
            // means save() raced a run, which the campaign driver
            // never does (it saves after all jobs join).
            if (e.second.wait_for(std::chrono::seconds(0)) !=
                std::future_status::ready)
                continue;
            const AloneBaseline &b = e.second.get();
            Json j = Json::object();
            j.set("ipc", b.ipc);
            j.set("profile", profileToJson(b.profile));
            entries.set(e.first, std::move(j));
        }
    }
    Json root = Json::object();
    root.set("format", kCacheFormat);
    root.set("entries", std::move(entries));

    std::ofstream out(path);
    if (!out)
        return false;
    root.write(out, 2);
    out << '\n';
    return static_cast<bool>(out);
}

std::size_t
AloneBaselineCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

std::uint64_t
AloneBaselineCache::computeCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return computed_;
}

} // namespace dbpsim
