/**
 * @file
 * Aggregated system configuration: everything needed to build a full
 * CMP + DRAM system, with the paper's evaluation defaults, the run
 * window and seed around it, and the one parameter table that maps
 * config keys (command-line key=value overrides) onto both.
 */

#ifndef DBPSIM_SIM_PARAMS_HH
#define DBPSIM_SIM_PARAMS_HH

#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "common/config.hh"
#include "core/core.hh"
#include "dram/addr_map.hh"
#include "dram/timing.hh"
#include "mem/controller.hh"
#include "mem/sched_factory.hh"
#include "part/manager.hh"
#include "part/part_dbp.hh"
#include "part/part_mcp.hh"

namespace dbpsim {

/**
 * Full system parameterization.
 */
struct SystemParams
{
    /** Cores / hardware threads (one application each). Not a table
     *  key: every job sets it from its mix. */
    unsigned numCores = 8;

    /** CPU cycles per memory-bus cycle (3.2 GHz over 800 MHz). */
    unsigned cpuRatio = 4;

    /** Core front-end configuration. */
    CoreParams core;

    /** DRAM geometry. Default: 2 channels x 2 ranks x 8 banks
     *  (32 banks), 64 Ki rows x 8 KiB rows (16 GiB total). */
    DramGeometry geometry;

    /** DDR timing preset name. */
    std::string timingName = "ddr3-1600";

    /** @name Refresh timing overrides (0 = keep the preset value).
     *  Config keys "trefi", "trfc", "trfc_pb". */
    /// @{
    Cycle trefiOverride = 0;
    Cycle trfcOverride = 0;
    Cycle trfcPbOverride = 0;
    /// @}

    /** SA_SEL relink override (0 = preset; config key "tsa"). */
    Cycle tsaOverride = 0;

    /**
     * Color frames by {channel, rank, bank, subarray} instead of bank
     * (config key "subarray_color"): partitioning policies then carve
     * subarray-granular color sets. Meaningful with a SALP mode.
     */
    bool subarrayColoring = false;

    /** The address map is page-interleaved without bank XOR. Read
     *  only by hostbench/traced_system.cc. */
    static constexpr MapScheme scheme = MapScheme::PageInterleave;
    static constexpr bool bankXor = false;

    /** Controller queues and drain watermarks. */
    ControllerParams controller;

    /** Scheduler name: fcfs | fr-fcfs | par-bs | atlas | tcm. Not a
     *  table key: every job sets it from its scheme. */
    std::string scheduler = "fr-fcfs";

    /** Scheduler tuning. */
    SchedulerInit sched;

    /** Partition policy name: none | ubp | dbp | mcp | dbp-mcp. Not
     *  a table key: every job sets it from its scheme. */
    std::string partition = "none";

    /** DBP tuning. */
    DbpParams dbp;

    /** MCP tuning. */
    McpParams mcp;

    /** Migration behaviour. */
    PartitionManagerParams partMgr;

    /** Profiling / repartitioning interval in CPU cycles. The paper's
     *  10 M cycles suit its billion-instruction runs; this scales with
     *  the shorter run window so DBP repartitions several times. */
    // dbplint:allow(cycle-literal) reason=evaluation default, the paper interval scaled to the shortened run window; overridden by config key interval (fig11 sweeps it)
    Cycle profileIntervalCpu = 500'000;

    /** There is no private cache: cores reach the controllers
     *  directly. Read only by hostbench/traced_system.cc. */
    static constexpr bool cacheEnabled = false;

    /**
     * Run the DRAM protocol checker alongside the simulation
     * (config key "check"). Compiled in always; the DBPSIM_CHECK
     * build option flips the default to on.
     */
    bool protocolCheck =
#ifdef DBPSIM_CHECK
        true;
#else
        false;
#endif

    /** Panic on the first protocol violation (config "check_failfast"). */
    bool checkFailFast = false;

    /** Construct the evaluation-default parameters. */
    SystemParams();

    /** Resolve the timing preset (with any refresh overrides). */
    DramTiming timing() const
    {
        DramTiming t = dramTimingByName(timingName);
        if (trefiOverride)
            t.tREFI = trefiOverride;
        if (trfcOverride)
            t.tRFC = trfcOverride;
        if (trfcPbOverride)
            t.tRFCpb = trfcPbOverride;
        if (tsaOverride)
            t.tSA = tsaOverride;
        return t;
    }

    /** One-line summary for logs. */
    std::string summary() const;
};

/**
 * Harness configuration.
 */
struct RunConfig
{
    /** Hardware/system baseline; scheduler/partition come per scheme. */
    SystemParams base;

    /** Warm-up CPU cycles (excluded from measurement): long enough for
     *  dynamic partitions to converge and the migration engine to
     *  finish before measuring. */
    // dbplint:allow(cycle-literal) reason=evaluation run window, scaled down (see README "Notes on scale") but long enough for partitions to converge; overridden by config key warmup
    Cycle warmupCpu = 2'500'000;

    /** Measured CPU cycles. */
    // dbplint:allow(cycle-literal) reason=evaluation run window, scaled down (see README "Notes on scale"); overridden by config key measure
    Cycle measureCpu = 4'000'000;

    /** Base seed for trace-generator instantiation. */
    std::uint64_t seedBase = 42;
};

/** Which signatures a parameter-table row enters. */
enum class ParamScope
{
    /** The simulated machine: alone runs and shared runs depend on it. */
    Hardware,
    /** Shared runs only: an alone run fixes it (one core, FR-FCFS, no
     *  partitioning, one profiling interval, checker irrelevant). */
    Policy,
    /** Measurement window and seed: every run depends on it. */
    Run,
};

/**
 * One config key: the RunConfig member it sets and its scope. A
 * RunConfig field without a row is a constant of the simulator.
 */
struct ParamRow
{
    const char *key;
    ParamScope scope;

    /** Parse @p key's value in @p cfg into the member; fatal()s on
     *  malformed or out-of-range input. */
    void (*apply)(RunConfig &rc, const Config &cfg, const char *key);

    /** Write the member's value to @p os as canonical text. */
    void (*print)(std::ostream &os, const RunConfig &rc);
};

/** Every config key, in the order makeRunConfig() applies them. */
std::span<const ParamRow> paramTable();

/**
 * The only way a Config becomes a RunConfig. Starts from a default
 * RunConfig (the evaluation defaults), applies every table key present
 * in @p cfg and checks the cross-key constraints. A key that is
 * neither in the table nor one of @p driver_keys (keys the caller
 * reads itself, such as an example's "mix") is fatal, naming the
 * nearest known key.
 */
RunConfig makeRunConfig(const Config &cfg,
                        const std::vector<std::string> &driver_keys = {});

/**
 * Canonical signature of every parameter an alone run depends on: the
 * hardware and run rows of the table. Two RunConfigs with equal
 * signatures produce bit-identical alone runs.
 */
std::string aloneRunSignature(const RunConfig &rc);

/**
 * Canonical signature of a full run configuration: every row of the
 * table. Embedded (hashed) into every campaign result document so
 * trajectories compare like against like.
 */
std::string runConfigSignature(const RunConfig &rc);

} // namespace dbpsim

#endif // DBPSIM_SIM_PARAMS_HH
