/**
 * @file
 * Trace tooling: generate a trace file from any profile in the
 * library, inspect a trace file's statistics, or replay a trace file
 * through the simulator alongside synthetic co-runners.
 *
 * Usage:
 *   trace_tools gen app=mcf count=100000 out=mcf.trace
 *   trace_tools stat in=mcf.trace
 *   trace_tools replay in=mcf.trace corunners=lbm,gcc [sched=tcm]
 *       [part=dbp]
 */

#include <iostream>
#include <set>
#include <sstream>

#include "common/config.hh"
#include "common/log.hh"
#include "common/table.hh"
#include "sim/system.hh"
#include "trace/spec_profiles.hh"
#include "trace/trace_file.hh"

using namespace dbpsim;

namespace {

void
cmdGenerate(const Config &config)
{
    config.requireKnownKeys({"app", "count", "out", "seed"});
    std::string app = config.getString("app", "mcf");
    std::string out = config.getString("out", app + ".trace");
    auto count =
        static_cast<std::size_t>(config.getUInt("count", 100'000));

    auto source = makeSpecSource(app, config.getUInt("seed", 1));
    writeTraceFile(out, captureRecords(*source, count));
    std::cout << "wrote " << count << " records of '" << app
              << "' to " << out << '\n';
}

void
cmdStat(const Config &config)
{
    config.requireKnownKeys({"in"});
    std::string in = config.getString("in", "");
    if (in.empty())
        fatal("stat needs in=<trace file>");
    auto records = readTraceFile(in);

    std::uint64_t instrs = 0, writes = 0, seq = 0;
    std::set<std::uint64_t> pages;
    Addr prev = kInvalidAddr;
    for (const auto &r : records) {
        instrs += r.gap + 1;
        writes += r.write ? 1 : 0;
        pages.insert(r.vaddr / 4096);
        if (prev != kInvalidAddr && r.vaddr == prev + 64)
            ++seq;
        prev = r.vaddr;
    }
    double n = static_cast<double>(records.size());

    TextTable table({"metric", "value"});
    auto row = [&](const std::string &k, const std::string &v) {
        table.beginRow();
        table.cell(k);
        table.cell(v);
    };
    row("records", std::to_string(records.size()));
    row("instructions", std::to_string(instrs));
    row("MPKI",
        formatDouble(1000.0 * n / static_cast<double>(instrs), 2));
    row("write fraction",
        formatDouble(static_cast<double>(writes) / n, 3));
    row("sequential-step fraction",
        formatDouble(static_cast<double>(seq) / n, 3));
    row("footprint (4 KiB pages)", std::to_string(pages.size()));
    table.print(std::cout);
}

void
cmdReplay(const Config &config)
{
    std::string in = config.getString("in", "");
    if (in.empty())
        fatal("replay needs in=<trace file>");

    TraceFileSource file = TraceFileSource::fromFile(in);
    std::vector<std::unique_ptr<TraceSource>> others;
    std::vector<TraceSource *> sources{&file};
    std::istringstream cs(config.getString("corunners", ""));
    std::string app;
    while (std::getline(cs, app, ',')) {
        if (app.empty())
            continue;
        others.push_back(makeSpecSource(app, 7 + others.size()));
        sources.push_back(others.back().get());
    }

    RunConfig rc =
        makeRunConfig(config, {"in", "corunners", "sched", "part"});
    SystemParams &params = rc.base;
    params.numCores = static_cast<unsigned>(sources.size());
    params.scheduler = config.getString("sched", params.scheduler);
    params.partition = config.getString("part", params.partition);

    System system(params, sources);
    auto ipc = system.runAndMeasure(rc.warmupCpu, rc.measureCpu);

    TextTable table({"core", "source", "IPC", "row hit rate"});
    for (unsigned t = 0; t < params.numCores; ++t) {
        table.beginRow();
        table.cell(t);
        table.cell(sources[t]->name());
        table.cell(ipc[t]);
        table.cell(system.threadRowHitRate(static_cast<ThreadId>(t)),
                   3);
    }
    table.print(std::cout);
    std::cout << "trace wrapped " << file.wraps() << " time(s)\n";

    if (ProtocolChecker *pc = system.protocolChecker()) {
        pc->finalize(system.memCycle());
        pc->report(std::cout);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::cerr << "usage: trace_tools gen|stat|replay [key=value...]"
                  << '\n';
        return 1;
    }
    std::string cmd = argv[1];
    Config config;
    config.parseArgs(argc, argv, 2);

    if (cmd == "gen")
        cmdGenerate(config);
    else if (cmd == "stat")
        cmdStat(config);
    else if (cmd == "replay")
        cmdReplay(config);
    else
        fatal("unknown command '", cmd, "' (expected gen|stat|replay)");
    return 0;
}
