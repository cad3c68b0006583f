#include "sim/params.hh"

#include <iomanip>
#include <limits>
#include <sstream>
#include <type_traits>
#include <utility>

#include "common/log.hh"

namespace dbpsim {

SystemParams::SystemParams()
{
    geometry.channels = 2;
    geometry.ranksPerChannel = 2;
    geometry.banksPerRank = 8;
    geometry.rowsPerBank = 65536;
    geometry.rowBytes = 8192;
    geometry.lineBytes = 64;
    geometry.pageBytes = 4096;
}

std::string
SystemParams::summary() const
{
    std::ostringstream os;
    os << geometry.channels << "ch x " << geometry.ranksPerChannel
       << "rk x " << geometry.banksPerRank << "bk ("
       << geometry.totalBanks() << " banks), " << timingName
       << ", refresh=" << refreshModeName(controller.refresh.mode);
    if (controller.refresh.aware)
        os << "+aware";
    if (controller.salp != SalpMode::None) {
        os << ", salp=" << salpModeName(controller.salp) << " ("
           << geometry.subarraysPerBank << " subarrays)";
        if (subarrayColoring)
            os << "+color";
    }
    return os.str();
}

namespace {

// ---- parsing and printing one member, by type ----------------------

void
parseInto(const Config &cfg, const char *key, unsigned &v)
{
    std::uint64_t x = cfg.getUInt(key, v);
    if (x > std::numeric_limits<unsigned>::max())
        fatal("value ", x, " for key ", key, " is out of range (max ",
              std::numeric_limits<unsigned>::max(), ")");
    v = static_cast<unsigned>(x);
}

void
parseInto(const Config &cfg, const char *key, std::uint64_t &v)
{
    v = cfg.getUInt(key, v);
}

void
parseInto(const Config &cfg, const char *key, double &v)
{
    v = cfg.getDouble(key, v);
}

void
parseInto(const Config &cfg, const char *key, bool &v)
{
    v = cfg.getBool(key, v);
}

void
parseInto(const Config &cfg, const char *key, std::string &v)
{
    v = cfg.getString(key, v);
}

void
parseInto(const Config &cfg, const char *key, SalpMode &v)
{
    v = salpModeByName(cfg.getString(key));
}

void
parseInto(const Config &cfg, const char *key, MigrationMode &v)
{
    v = migrationModeByName(cfg.getString(key));
}

void
parseInto(const Config &cfg, const char *key, PagePolicy &v)
{
    const std::string p = cfg.getString(key);
    if (p == "open")
        v = PagePolicy::Open;
    else if (p == "closed")
        v = PagePolicy::Closed;
    else if (p == "adaptive")
        v = PagePolicy::OpenAdaptive;
    else
        fatal("unknown page_policy '", p,
              "' (expected open|closed|adaptive)");
}

template <typename T>
void
printValue(std::ostream &os, const T &v)
{
    if constexpr (std::is_enum_v<T>)
        os << static_cast<int>(v);
    else
        os << v;
}

/** A row for the member that the captureless accessor @p Member
 *  returns a reference to. */
template <typename Member>
constexpr ParamRow
row(const char *key, ParamScope scope, Member)
{
    return {key, scope,
            [](RunConfig &rc, const Config &cfg, const char *k) {
                parseInto(cfg, k, Member{}(rc));
            },
            [](std::ostream &os, const RunConfig &rc) {
                printValue(os, Member{}(rc));
            }};
}

#define PARAM(key, scope, member)                                         \
    row(key, ParamScope::scope, [](auto &rc) -> auto & { return rc.member; })

/** "refresh=darp" is shorthand for per-bank + refresh-aware (a later
 *  refresh_aware key can still turn the awareness off). */
constexpr ParamRow
refreshRow()
{
    return {"refresh", ParamScope::Hardware,
            [](RunConfig &rc, const Config &cfg, const char *key) {
                RefreshParams &refresh = rc.base.controller.refresh;
                const std::string mode = cfg.getString(key);
                refresh.aware = refresh.aware || mode == "darp";
                refresh.mode =
                    refreshModeByName(mode == "darp" ? "perbank" : mode);
            },
            [](std::ostream &os, const RunConfig &rc) {
                printValue(os, rc.base.controller.refresh.mode);
            }};
}

std::string
signature(const RunConfig &rc, bool with_policy)
{
    std::ostringstream os;
    os << std::setprecision(17); // doubles round-trip exactly.
    for (const ParamRow &r : paramTable()) {
        if (r.scope == ParamScope::Policy && !with_policy)
            continue;
        os << r.key << '=';
        r.print(os, rc);
        os << ';';
    }
    return os.str();
}

} // namespace

std::span<const ParamRow>
paramTable()
{
    static constexpr ParamRow table[] = {
        PARAM("cpu_ratio", Hardware, base.cpuRatio),
        PARAM("window", Hardware, base.core.windowSize),
        PARAM("issue_width", Hardware, base.core.issueWidth),
        PARAM("mshrs", Hardware, base.core.mshrs),
        PARAM("store_buffer", Hardware, base.core.storeBufferSize),
        PARAM("channels", Hardware, base.geometry.channels),
        PARAM("ranks", Hardware, base.geometry.ranksPerChannel),
        PARAM("banks", Hardware, base.geometry.banksPerRank),
        PARAM("rows", Hardware, base.geometry.rowsPerBank),
        PARAM("row_bytes", Hardware, base.geometry.rowBytes),
        PARAM("subarrays", Hardware, base.geometry.subarraysPerBank),
        PARAM("timing", Hardware, base.timingName),
        PARAM("read_queue", Hardware, base.controller.readQueueSize),
        PARAM("write_queue", Hardware, base.controller.writeQueueSize),
        PARAM("page_policy", Hardware, base.controller.pagePolicy),
        PARAM("row_idle_timeout", Hardware,
              base.controller.rowIdleTimeout),
        refreshRow(),
        PARAM("refresh_aware", Hardware, base.controller.refresh.aware),
        PARAM("refresh_postpone", Hardware,
              base.controller.refresh.postponeMax),
        PARAM("trefi", Hardware, base.trefiOverride),
        PARAM("trfc", Hardware, base.trfcOverride),
        PARAM("trfc_pb", Hardware, base.trfcPbOverride),
        PARAM("salp", Hardware, base.controller.salp),
        PARAM("tsa", Hardware, base.tsaOverride),
        PARAM("subarray_color", Hardware, base.subarrayColoring),
        PARAM("tcm_cluster_thresh", Policy, base.sched.tcmClusterThresh),
        PARAM("tcm_shuffle", Policy, base.sched.tcmShuffleInterval),
        PARAM("atlas_quantum", Policy, base.sched.atlasQuantum),
        PARAM("parbs_cap", Policy, base.sched.parbsMarkingCap),
        PARAM("dbp_light_mpki", Policy, base.dbp.lightMpki),
        PARAM("dbp_light_banks_per_thread", Policy,
              base.dbp.lightBanksPerThread),
        PARAM("dbp_flat_demand", Policy, base.dbp.flatDemand),
        PARAM("dbp_hysteresis", Policy, base.dbp.hysteresisBanks),
        PARAM("mcp_low_mpki", Policy, base.mcp.lowMpki),
        PARAM("mcp_high_rbl", Policy, base.mcp.highRbl),
        PARAM("migration", Policy, base.partMgr.migration),
        PARAM("max_migrate_pages", Policy, base.partMgr.maxMigratePages),
        PARAM("interval", Policy, base.profileIntervalCpu),
        PARAM("check", Policy, base.protocolCheck),
        PARAM("check_failfast", Policy, base.checkFailFast),
        PARAM("warmup", Run, warmupCpu),
        PARAM("measure", Run, measureCpu),
        PARAM("seed", Run, seedBase),
    };
    return table;
}

#undef PARAM

RunConfig
makeRunConfig(const Config &cfg, const std::vector<std::string> &driver_keys)
{
    const std::span<const ParamRow> table = paramTable();
    std::vector<std::string> known = driver_keys;
    for (const ParamRow &r : table)
        known.emplace_back(r.key);
    cfg.requireKnownKeys(known);

    RunConfig rc;
    for (const ParamRow &r : table)
        if (cfg.has(r.key))
            r.apply(rc, cfg, r.key);

    if (rc.base.subarrayColoring && rc.base.controller.salp == SalpMode::None)
        fatal("subarray_color=1 requires a salp mode: without "
              "subarray-level parallelism the finer colors only "
              "shrink each thread's usable row-buffer set");

    // Values no machine can be built with: the constructors assert
    // them, so reject them here as user errors, before any job runs.
    // Every scheduler's and DBP's keys are checked, because schemes
    // choose the scheduler and the policy per job.
    const SystemParams &b = rc.base;
    if (std::string err = b.geometry.validate(); !err.empty())
        fatal("invalid DRAM geometry: ", err);
    if (std::string err = b.timing().validate(); !err.empty())
        fatal("invalid DRAM timing: ", err);
    const std::pair<const char *, std::uint64_t> at_least_one[] = {
        {"cpu_ratio", b.cpuRatio},
        {"window", b.core.windowSize},
        {"issue_width", b.core.issueWidth},
        {"mshrs", b.core.mshrs},
        {"store_buffer", b.core.storeBufferSize},
        {"read_queue", b.controller.readQueueSize},
        {"refresh_postpone", b.controller.refresh.postponeMax},
        {"tcm_shuffle", b.sched.tcmShuffleInterval},
        {"atlas_quantum", b.sched.atlasQuantum},
        {"parbs_cap", b.sched.parbsMarkingCap},
        {"interval", b.profileIntervalCpu},
        {"measure", rc.measureCpu},
    };
    for (const auto &[key, value] : at_least_one)
        if (value == 0)
            fatal("value 0 for key ", key, " is out of range (min 1)");
    if (b.controller.writeQueueSize < b.controller.writeHiWatermark)
        fatal("value ", b.controller.writeQueueSize,
              " for key write_queue is out of range (min ",
              b.controller.writeHiWatermark,
              ", the write-drain high watermark)");
    const double thresh = b.sched.tcmClusterThresh;
    if (!(thresh >= 0.0 && thresh <= 1.0))
        fatal("value ", thresh,
              " for key tcm_cluster_thresh is out of range [0, 1]");
    if (!(b.dbp.lightBanksPerThread > 0.0))
        fatal("value ", b.dbp.lightBanksPerThread,
              " for key dbp_light_banks_per_thread is out of range "
              "(must be > 0)");
    return rc;
}

std::string
aloneRunSignature(const RunConfig &rc)
{
    return signature(rc, false);
}

std::string
runConfigSignature(const RunConfig &rc)
{
    return signature(rc, true);
}

} // namespace dbpsim
