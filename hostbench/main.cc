/**
 * @file
 * The host-time benchmark: command-line entry point.
 *
 *   hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *
 * Untraced (--trace 0): repeats the workload's whole job list for about
 * --seconds and prints the end-to-end metrics over the repetitions (see
 * runUntraced). Traced (--trace 1): one untraced pass for the campaign-
 * layer numbers, then every distinct job on the traced system, each
 * checked against a plain System run; prints the per-layer metrics and
 * writes the spans to .bench_build/hostbench-spans/. Run it from the
 * repository root. The last line of standard output is one JSON
 * object: correct, attempted, failed, metrics.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/log.hh"
#include "reference.hh"
#include "sim/campaign.hh"
#include "traced_system.hh"
#include "workloads.hh"

namespace {

using namespace hostbench;

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

/**
 * Peak resident set of this program image. VmHWM, unlike getrusage's
 * ru_maxrss, starts afresh at exec, so it does not report the peak of
 * the process (python3 run.py) that forked this one.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void
printResult(std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os.precision(12);
    os << "{\"correct\": " << (failed == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        os << (i ? ", " : "") << '"' << metrics[i].name
           << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
           << metrics[i].unit << "\"}";
    os << "}}";
    std::cout << os.str() << std::endl;
}

void
reportProblems(const RepResult &rep)
{
    for (const auto &p : rep.problems)
        std::cerr << "hostbench: FAILED " << p << "\n";
}

void
printDigests(const RepResult &rep)
{
    for (const auto &[name, digest] : rep.digests)
        std::cout << "result digest " << name << ": " << digest << "\n";
}

/** Set-up passes before each pass; setup_s is their median. */
constexpr int kSetupPassesPerPass = 5;

int
runUntraced(const Workload &w, double seconds)
{
    auto t0 = std::chrono::steady_clock::now();
    auto elapsed = [&] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };
    std::vector<double> setup;
    std::vector<RepResult> reps;
    // Later passes keep earlier passes' results, so the peak resident
    // set is taken after the first: what one pass over the job list needs.
    double peak_rss_mb = 0.0;
    do {
        std::vector<double> pass_setup;
        for (int i = 0; i < kSetupPassesPerPass; ++i)
            pass_setup.push_back(setupPass(w));
        reps.push_back(runRep(w));
        if (reps.size() == 1)
            peak_rss_mb = peakRssMb();
        // Set-up ran right before the pass's first reference run.
        const double scale = kReferenceNominalS / reps.back().stages[0].ref;
        for (double t : pass_setup)
            setup.push_back(t * scale);
        std::cerr << "hostbench: " << w.name << " pass " << reps.size()
                  << ": " << reps.back().wallS << " s, reference run "
                  << reps.back().stages[0].ref * 1e3 << " ms\n";
    } while (elapsed() + reps.back().wallS <= seconds);

    // Every pass must reproduce the first one's results exactly.
    const RepResult &first = reps.front();
    std::uint64_t attempted = 0, failed = 0;
    for (auto &rep : reps) {
        for (const auto &[key, job] : rep.results.members()) {
            if (job.dump() != first.results.at(key).dump()) {
                ++rep.failed;
                rep.problems.push_back(key + ": not reproduced");
            }
        }
        reportProblems(rep);
        attempted += rep.jobs;
        failed += rep.failed;
    }
    printDigests(first);

    // The host's speed swings by up to 40 % over minutes on a shared
    // machine, far more than any within-run statistic of raw times
    // removes. Each stage is timed against the reference runs on either
    // side of it instead (see reference.hh).
    const double wall = normalizedTotal(reps, &StageTime::wall);
    const double cpu = normalizedTotal(reps, &StageTime::cpu);
    std::vector<double> raw;
    for (const auto &rep : reps)
        raw.push_back(rep.wallS);
    std::cerr << "hostbench: " << reps.size() << " passes, raw wall median "
              << median(raw) << " s, normalized " << wall << " s\n";

    std::vector<Metric> metrics = {
        {"norm_wall_s", wall, "s"},
        {"norm_cpu_s", cpu, "s"},
        {"norm_core_mcycles_per_s", first.coreCycles / wall / 1e6, "M/s"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
    for (const auto &[name, value] : simulatedMetrics(w, first.results))
        metrics.push_back({name, value, "%"});
    printResult(attempted, failed, metrics);
    return 0;
}

int
runTraced(const Workload &w, std::uint64_t seed)
{
    RepResult rep = runRep(w);
    reportProblems(rep);
    printDigests(rep);
    std::uint64_t attempted = rep.jobs, failed = rep.failed;

    SpanLog log;
    LayerTimes times;
    Counts n;
    std::int64_t traced_ns = 0, plain_ns = 0, run_ns = 0;
    std::uint32_t id = 0;
    for (const Job &job : uniqueJobs(w)) {
        TracedRun tr = runTracedJob(w.rc, job.mix, job.scheme, log, id++);
        JobRun plain = runPlainJob(w.rc, job.mix, job.scheme);
        ++attempted;
        std::string problem = fidelityMismatch(tr, plain);
        if (problem.empty() && tr.counts.at("check.violations") > 0)
            problem = "protocol violations";
        if (!problem.empty()) {
            ++failed;
            std::cerr << "hostbench: FAILED traced " << job.key << ": "
                      << problem << "\n";
        }
        times += tr.times;
        addCounts(n, tr.counts);
        traced_ns += tr.wallNs;
        plain_ns += plain.wallNs;
        run_ns += tr.runNs;
    }

    const std::string dir = ".bench_build/hostbench-spans";
    std::filesystem::create_directories(dir);
    std::string path =
        dir + "/" + w.name + "-seed" + std::to_string(seed) + ".jsonl";
    std::ofstream spans(path);
    log.write(spans);
    std::cerr << "hostbench: spans written to " << path << "\n";

    const double cycles = n.at("cpu_cycles");
    // Clock reads removed from the top-level spans (see spanNs()).
    const double clock_ns = static_cast<double>(times.topLevelTimedSpans()) *
        static_cast<double>(clockOverheadNs());
    auto ns = [&](Layer l) { return times.selfNs(l) / cycles; };
    auto count = [&](const char *k) { return n.at(k); };
    std::vector<Metric> metrics = {
        {"core.tick_ns", ns(Layer::Core), "ns/cycle"},
        {"core.instructions", count("core.instructions"), "count"},
        {"core.loads", count("core.loads"), "count"},
        {"core.mshr_merges", count("core.mshr_merges"), "count"},
        {"core.head_stall_frac",
         ratio(count("core.head_stalls"), count("core.cycles")), "ratio"},
        {"trace.next_ns", ns(Layer::Trace), "ns/cycle"},
        {"trace.records", count("trace.records"), "count"},
        {"os.translate_ns", ns(Layer::OsTranslate), "ns/cycle"},
        {"os.frames_allocated", count("os.frames_allocated"), "count"},
        {"os.pages_migrated", count("os.pages_migrated"), "count"},
        {"os.fallback_allocs", count("os.fallback_allocs"), "count"},
        {"mem.enqueue_ns", ns(Layer::MemEnqueue), "ns/cycle"},
        {"mem.controller_tick_ns", ns(Layer::Controller), "ns/cycle"},
        {"mem.idle_frac",
         ratio(count("mem.idle_ticks"), count("mem.controller_ticks")),
         "ratio"},
        {"mem.read_q_depth_avg",
         ratio(count("mem.read_q_depth_sum"), count("mem.controller_ticks")),
         "requests"},
        {"mem.queue_full", count("mem.queue_full"), "count"},
        {"mem.row_hit_rate",
         ratio(count("mem.row_hits"),
               count("mem.row_hits") + count("mem.row_misses")),
         "ratio"},
        {"mem.read_latency_bus",
         ratio(count("mem.read_latency_sum"), count("mem.reads_completed")),
         "bus_cycles"},
        {"mem.sched_ns", ns(Layer::Sched), "ns/cycle"},
        {"mem.sched.compares",
         ratio(count("mem.sched.compares"), count("mem_cycles")),
         "count/cycle"},
        {"mem.profiler_ns", ns(Layer::Profiler), "ns/cycle"},
        {"dram.act", count("dram.act"), "count"},
        {"dram.pre", count("dram.pre"), "count"},
        {"dram.rd", count("dram.rd"), "count"},
        {"dram.wr", count("dram.wr"), "count"},
        {"dram.ref", count("dram.ref"), "count"},
        {"dram.refpb", count("dram.refpb"), "count"},
        {"dram.sa_sel", count("dram.sa_sel"), "count"},
        {"part.ns", ns(Layer::Part), "ns/cycle"},
        {"part.repartitions", count("part.repartitions"), "count"},
        {"part.pages_migrated", count("part.pages_migrated"), "count"},
        {"check.on_command_ns", ns(Layer::CheckOnCommand), "ns/cycle"},
        {"check.commands", count("check.commands"), "count"},
        {"check.violations", count("check.violations"), "count"},
        {"sim.alone_s", rep.aloneS, "s"},
        {"sim.alone_computed", static_cast<double>(rep.aloneComputed),
         "count"},
        {"sim.jobs", static_cast<double>(rep.jobs), "count"},
        {"sim.jobs_duplicate", static_cast<double>(rep.duplicates),
         "count"},
        {"sim.executor_busy_frac",
         ratio(rep.jobSecondsTotal, rep.wallS * w.workers), "ratio"},
        {"tracing.overhead_pct",
         100.0 * ratio(static_cast<double>(traced_ns - plain_ns),
                       static_cast<double>(plain_ns)),
         "%"},
        {"tracing.clock_ns", clock_ns / cycles, "ns/cycle"},
        {"tracing.unattributed_ns",
         (static_cast<double>(run_ns) - times.attributedNs() - clock_ns) /
             cycles,
         "ns/cycle"},
    };
    printResult(attempted, failed, metrics);
    return 0;
}

void
usage()
{
    std::cerr << "usage: hostbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n"
                 "workloads:";
    for (const auto &name : workloadNames())
        std::cerr << ' ' << name;
    std::cerr << '\n';
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i], value = argv[i + 1];
        try {
            if (flag == "--workload")
                workload = value;
            else if (flag == "--seed")
                seed = std::stoull(value);
            else if (flag == "--seconds")
                seconds = std::stod(value);
            else if (flag == "--trace")
                trace = std::stoi(value);
            else
                throw std::invalid_argument(flag);
        } catch (const std::exception &) {
            std::cerr << "hostbench: bad argument " << flag << ' ' << value
                      << '\n';
            usage();
            return 2;
        }
    }
    Workload w;
    if (argc % 2 != 1 || !makeWorkload(workload, seed, w) ||
        (trace != 0 && trace != 1)) {
        usage();
        return 2;
    }
    dbpsim::setLogLevel(dbpsim::LogLevel::Warn);
    return trace ? runTraced(w, seed) : runUntraced(w, seconds);
}
