/**
 * @file
 * Table 1: the simulated system configuration — regenerates the
 * paper-style configuration table from the live defaults so the
 * numbers in EXPERIMENTS.md can never drift from the code.
 */

#include "bench_common.hh"
#include "common/log.hh"
#include "dram/timing.hh"

namespace {

using namespace dbpsim;
using namespace dbpsim::bench;

void
plan(CampaignPlan &, CampaignContext &)
{
    // Render-only: the table is derived from the configuration itself.
}

/** The row-buffer policy the controllers run. */
std::string
pagePolicyText(const ControllerParams &c)
{
    switch (c.pagePolicy) {
      case PagePolicy::Open:
        return "open-page";
      case PagePolicy::Closed:
        return "closed-page";
      case PagePolicy::OpenAdaptive:
        return "open-page, idle rows closed after " +
            std::to_string(c.rowIdleTimeout) + " bus cycles";
    }
    DBP_PANIC("unreachable PagePolicy");
}

/** How adopted partitions treat already-allocated pages. */
std::string
migrationText(const PartitionManagerParams &m)
{
    const std::string cost =
        "cost = 1 page of bursts at source and destination banks";
    const std::string cap = m.maxMigratePages == 0
        ? "no cap"
        : "cap " + std::to_string(m.maxMigratePages) +
            " pages per interval";
    switch (m.migration) {
      case MigrationMode::None:
        return "none, only new allocations follow a repartition";
      case MigrationMode::Lazy:
        return "lazy, on touch, " + cost;
      case MigrationMode::Eager:
        return "eager, " + cost + ", " + cap;
      case MigrationMode::EagerFree:
        return "eager at zero cost, " + cap;
    }
    DBP_PANIC("unreachable MigrationMode");
}

void
render(CampaignRun &run, std::ostream &os)
{
    const SystemParams &p = run.config().base;
    DramTiming t = p.timing();

    TextTable table({"component", "configuration"});
    auto row = [&](const std::string &k, const std::string &v) {
        table.beginRow();
        table.cell(k);
        table.cell(v);
    };

    row("cores", std::to_string(p.numCores) + " (trace-driven, " +
        std::to_string(p.core.issueWidth) + "-wide, " +
        std::to_string(p.core.windowSize) + "-entry window, " +
        std::to_string(p.core.mshrs) + " MSHRs, " +
        std::to_string(p.core.storeBufferSize) + "-entry store buffer)");
    row("cpu clock", "bus x " + std::to_string(p.cpuRatio) +
        " (3.2 GHz over 800 MHz)");
    row("memory", std::to_string(p.geometry.channels) + " channels x " +
        std::to_string(p.geometry.ranksPerChannel) + " ranks x " +
        std::to_string(p.geometry.banksPerRank) + " banks = " +
        std::to_string(p.geometry.totalBanks()) + " banks, " +
        std::to_string(p.geometry.capacityBytes() >> 30) + " GiB");
    row("dram", t.name + "  tRCD/tRP/tCL " + std::to_string(t.tRCD) +
        "/" + std::to_string(t.tRP) + "/" + std::to_string(t.tCL) +
        ", tRAS " + std::to_string(t.tRAS) + ", tFAW " +
        std::to_string(t.tFAW) + ", tREFI/tRFC " +
        std::to_string(t.tREFI) + "/" + std::to_string(t.tRFC));
    row("row / line / page",
        std::to_string(p.geometry.rowBytes) + " B row, " +
        std::to_string(p.geometry.lineBytes) + " B line, " +
        std::to_string(p.geometry.pageBytes) + " B OS page");
    row("controller", "per channel: " +
        std::to_string(p.controller.readQueueSize) + "-entry read / " +
        std::to_string(p.controller.writeQueueSize) +
        "-entry write queue, drain " +
        std::to_string(p.controller.writeHiWatermark) + "/" +
        std::to_string(p.controller.writeLoWatermark) + ", " +
        pagePolicyText(p.controller));
    row("address map",
        "page interleave (frame-homogeneous banks; page coloring)");
    row("profiling interval",
        std::to_string(p.profileIntervalCpu) + " CPU cycles");
    row("dbp", "lightMpki " + formatDouble(p.dbp.lightMpki, 1) +
        ", demand = MPKI x (1 - RBHR)" +
        ", hysteresis " + std::to_string(p.dbp.hysteresisBanks) +
        " bank(s), light share cap " +
        formatDouble(p.dbp.lightShareCap, 2));
    row("migration", migrationText(p.partMgr));

    table.print(os);
}

const CampaignRegistrar reg({
    "tab1",
    "system configuration",
    "",
    plan,
    render,
});

} // namespace
