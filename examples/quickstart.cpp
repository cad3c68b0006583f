/**
 * @file
 * Quickstart: build a 4-core system, run one workload mix under
 * FR-FCFS and under DBP, and print the paper's metrics side by side.
 *
 * Usage: quickstart [cores=4] [key=value ...]
 *   e.g. quickstart cores=8 banks=16
 */

#include <iostream>
#include <limits>

#include "common/config.hh"
#include "common/log.hh"
#include "common/table.hh"
#include "sim/experiment.hh"
#include "trace/mix.hh"

using namespace dbpsim;

int
main(int argc, char **argv)
{
    Config config;
    config.parseArgs(argc, argv);
    RunConfig rc = makeRunConfig(config, {"cores"});
    // A 4-core demo unless cores= says otherwise.
    const std::uint64_t cores = config.getUInt("cores", 4);
    if (cores == 0 || cores > std::numeric_limits<unsigned>::max())
        fatal("value ", cores, " for key cores is out of range");
    rc.base.numCores = static_cast<unsigned>(cores);

    // A small mix: two memory hogs and two light applications.
    WorkloadMix mix = scaleMix(
        WorkloadMix{"quickstart", {"mcf", "libquantum", "gcc", "hmmer"}},
        rc.base.numCores);

    std::cout << "dbpsim quickstart\n"
              << "  machine : " << rc.base.summary() << "\n"
              << "  mix     : ";
    for (const auto &a : mix.apps)
        std::cout << a << ' ';
    std::cout << "\n\n";

    AloneBaselineCache baselines;
    TextTable table({"scheme", "weighted speedup", "max slowdown",
                     "harmonic speedup"});
    for (const auto &scheme_name : {"FR-FCFS", "UBP", "DBP"}) {
        MixResult r =
            runMixJob(rc, mix, schemeByName(scheme_name), baselines);
        table.beginRow();
        table.cell(r.schemeName);
        table.cell(r.metrics.weightedSpeedup);
        table.cell(r.metrics.maxSlowdown);
        table.cell(r.metrics.harmonicSpeedup);
    }
    table.print(std::cout);

    std::cout << "\nHigher weighted/harmonic speedup is better; lower "
                 "max slowdown is fairer.\n";
    return 0;
}
