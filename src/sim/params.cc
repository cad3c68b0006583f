#include "sim/params.hh"

#include <sstream>

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

void
SystemParams::applyConfig(const Config &config)
{
    numCores = static_cast<unsigned>(config.getUInt("cores", numCores));
    cpuRatio = static_cast<unsigned>(config.getUInt("cpu_ratio",
                                                    cpuRatio));

    core.windowSize = static_cast<unsigned>(
        config.getUInt("window", core.windowSize));
    core.issueWidth = static_cast<unsigned>(
        config.getUInt("issue_width", core.issueWidth));
    core.mshrs = static_cast<unsigned>(config.getUInt("mshrs",
                                                      core.mshrs));
    core.storeBufferSize = static_cast<unsigned>(
        config.getUInt("store_buffer", core.storeBufferSize));

    geometry.channels = static_cast<unsigned>(
        config.getUInt("channels", geometry.channels));
    geometry.ranksPerChannel = static_cast<unsigned>(
        config.getUInt("ranks", geometry.ranksPerChannel));
    geometry.banksPerRank = static_cast<unsigned>(
        config.getUInt("banks", geometry.banksPerRank));
    geometry.rowsPerBank = config.getUInt("rows", geometry.rowsPerBank);
    geometry.rowBytes = config.getUInt("row_bytes", geometry.rowBytes);
    geometry.subarraysPerBank = static_cast<unsigned>(
        config.getUInt("subarrays", geometry.subarraysPerBank));

    timingName = config.getString("timing", timingName);
    if (config.has("map"))
        scheme = mapSchemeByName(config.getString("map", "page"));
    bankXor = config.getBool("bank_xor", bankXor);

    controller.readQueueSize = static_cast<unsigned>(
        config.getUInt("read_queue", controller.readQueueSize));
    controller.writeQueueSize = static_cast<unsigned>(
        config.getUInt("write_queue", controller.writeQueueSize));
    if (config.has("page_policy")) {
        std::string p = config.getString("page_policy", "open");
        if (p == "open")
            controller.pagePolicy = PagePolicy::Open;
        else if (p == "closed")
            controller.pagePolicy = PagePolicy::Closed;
        else if (p == "adaptive")
            controller.pagePolicy = PagePolicy::OpenAdaptive;
        else
            fatal("unknown page_policy '", p,
                  "' (expected open|closed|adaptive)");
    }

    controller.rowIdleTimeout = config.getUInt(
        "row_idle_timeout", controller.rowIdleTimeout);

    if (config.has("refresh")) {
        std::string r = config.getString("refresh", "allbank");
        if (r == "darp") { // shorthand: per-bank + refresh-aware.
            controller.refresh.mode = RefreshMode::PerBank;
            controller.refresh.aware = true;
        } else {
            controller.refresh.mode = refreshModeByName(r);
        }
    }
    controller.refresh.aware = config.getBool("refresh_aware",
                                              controller.refresh.aware);
    controller.refresh.postponeMax = static_cast<unsigned>(
        config.getUInt("refresh_postpone",
                       controller.refresh.postponeMax));
    trefiOverride = config.getUInt("trefi", trefiOverride);
    trfcOverride = config.getUInt("trfc", trfcOverride);
    trfcPbOverride = config.getUInt("trfc_pb", trfcPbOverride);

    if (config.has("salp"))
        controller.salp =
            salpModeByName(config.getString("salp", "none"));
    tsaOverride = config.getUInt("tsa", tsaOverride);
    subarrayColoring = config.getBool("subarray_color",
                                      subarrayColoring);
    if (subarrayColoring && controller.salp == SalpMode::None)
        fatal("subarray_color=1 requires a salp mode: without "
              "subarray-level parallelism the finer colors only "
              "shrink each thread's usable row-buffer set");

    scheduler = config.getString("sched", scheduler);
    partition = config.getString("part", partition);

    sched.tcmClusterThresh = config.getDouble("tcm_cluster_thresh",
                                              sched.tcmClusterThresh);
    sched.tcmShuffleInterval = config.getUInt("tcm_shuffle",
                                              sched.tcmShuffleInterval);
    sched.atlasQuantum = config.getUInt("atlas_quantum",
                                        sched.atlasQuantum);
    sched.parbsMarkingCap = static_cast<unsigned>(
        config.getUInt("parbs_cap", sched.parbsMarkingCap));

    dbp.lightMpki = config.getDouble("dbp_light_mpki", dbp.lightMpki);
    dbp.lightBanksPerThread = config.getDouble(
        "dbp_light_banks_per_thread", dbp.lightBanksPerThread);
    dbp.flatDemand = config.getBool("dbp_flat_demand",
                                    dbp.flatDemand);
    dbp.hysteresisBanks = static_cast<unsigned>(
        config.getUInt("dbp_hysteresis", dbp.hysteresisBanks));

    mcp.lowMpki = config.getDouble("mcp_low_mpki", mcp.lowMpki);
    mcp.highRbl = config.getDouble("mcp_high_rbl", mcp.highRbl);

    if (config.has("migration"))
        partMgr.migration = migrationModeByName(
            config.getString("migration", "eager"));
    partMgr.maxMigratePages = config.getUInt("max_migrate_pages",
                                             partMgr.maxMigratePages);

    profileIntervalCpu = config.getUInt("interval", profileIntervalCpu);

    protocolCheck = config.getBool("check", protocolCheck);
    checkFailFast = config.getBool("check_failfast", checkFailFast);

    cacheEnabled = config.getBool("cache", cacheEnabled);
    cache.sizeBytes = config.getUInt("cache_size", cache.sizeBytes);
    cache.associativity = static_cast<unsigned>(
        config.getUInt("cache_assoc", cache.associativity));
    cache.hitLatency = config.getUInt("cache_hit_latency",
                                      cache.hitLatency);
}

std::string
SystemParams::summary() const
{
    std::ostringstream os;
    os << numCores << " cores, " << geometry.channels << "ch x "
       << geometry.ranksPerChannel << "rk x " << geometry.banksPerRank
       << "bk (" << geometry.totalBanks() << " banks), " << timingName
       << ", sched=" << scheduler << ", part=" << partition
       << ", map=" << mapSchemeName(scheme)
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

} // namespace dbpsim
