/**
 * @file
 * End-to-end system tests: determinism, forward progress for every
 * (scheduler x partition) combination, partition enforcement through
 * the whole stack, the headline interference properties (UBP isolates
 * a victim's row locality; DBP grants banks by demand), and parameter
 * plumbing.
 */

#include <gtest/gtest.h>

#include <memory>

#include "sim/system.hh"
#include "trace/spec_profiles.hh"
#include "trace/synthetic.hh"

namespace dbpsim {
namespace {

/** Small geometry for fast tests. */
SystemParams
smallParams(unsigned cores)
{
    SystemParams p;
    p.numCores = cores;
    p.geometry.rowsPerBank = 4096; // 1 GiB machine; plenty for tests.
    p.profileIntervalCpu = 200'000;
    return p;
}

/** Synthetic source with given dials. */
std::unique_ptr<SyntheticSource>
makeSource(const std::string &name, double mpki, unsigned streams,
           double seq_run, double random_frac, std::uint64_t pages,
           std::uint64_t seed)
{
    SyntheticParams sp;
    sp.name = name;
    sp.seed = seed;
    sp.phases[0].mpki = mpki;
    sp.phases[0].streams = streams;
    sp.phases[0].seqRunLines = seq_run;
    sp.phases[0].randomFrac = random_frac;
    sp.phases[0].writeFrac = 0.25;
    sp.phases[0].footprintPages = pages;
    return std::make_unique<SyntheticSource>(sp);
}

/** A streaming app and an irregular app. */
struct Pair
{
    std::unique_ptr<SyntheticSource> a;
    std::unique_ptr<SyntheticSource> b;
    std::vector<TraceSource *> raw;

    Pair()
    {
        a = makeSource("stream", 25, 1, 128, 0.0, 2048, 1);
        b = makeSource("random", 20, 6, 2, 0.6, 8192, 2);
        raw = {a.get(), b.get()};
    }
};

TEST(System, DeterministicAcrossIdenticalRuns)
{
    auto run = [] {
        Pair p;
        System sys(smallParams(2), p.raw);
        return sys.runAndMeasure(100'000, 400'000);
    };
    auto r1 = run();
    auto r2 = run();
    ASSERT_EQ(r1.size(), r2.size());
    for (std::size_t i = 0; i < r1.size(); ++i)
        EXPECT_DOUBLE_EQ(r1[i], r2[i]);
}

TEST(System, EveryCoreMakesProgress)
{
    Pair p;
    System sys(smallParams(2), p.raw);
    auto ipc = sys.runAndMeasure(100'000, 400'000);
    for (double v : ipc) {
        EXPECT_GT(v, 0.0);
        EXPECT_LE(v, 4.0); // issue width.
    }
}

class SchedulerPartitionMatrix
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::string>>
{
};

TEST_P(SchedulerPartitionMatrix, RunsAndProgresses)
{
    auto [sched, part] = GetParam();
    Pair p;
    SystemParams params = smallParams(2);
    params.scheduler = sched;
    params.partition = part;
    System sys(params, p.raw);
    auto ipc = sys.runAndMeasure(100'000, 300'000);
    for (double v : ipc)
        EXPECT_GT(v, 0.0) << sched << "+" << part;
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, SchedulerPartitionMatrix,
    ::testing::Combine(
        ::testing::Values("fcfs", "fr-fcfs", "par-bs", "atlas", "tcm"),
        ::testing::Values("none", "ubp", "dbp", "mcp", "dbp-mcp")));

TEST(System, DegenerateSingleBankMachineRuns)
{
    // 1 core on a 1-channel x 1-rank x 1-bank machine: the extreme
    // corner every timing constraint funnels through.
    auto src = makeSource("one", 20, 2, 16, 0.2, 256, 1);
    std::vector<TraceSource *> raw{src.get()};
    SystemParams p;
    p.numCores = 1;
    p.geometry.channels = 1;
    p.geometry.ranksPerChannel = 1;
    p.geometry.banksPerRank = 1;
    p.geometry.rowsPerBank = 65536;
    p.profileIntervalCpu = 100'000;
    System sys(p, raw);
    auto ipc = sys.runAndMeasure(100'000, 200'000);
    EXPECT_GT(ipc[0], 0.0);
}

TEST(System, MoreThreadsThanBanksStillPartitions)
{
    // 4 threads, 2 banks: partitioning degenerates to sharing but
    // must neither crash nor starve anyone.
    std::vector<std::unique_ptr<SyntheticSource>> owned;
    std::vector<TraceSource *> raw;
    for (int i = 0; i < 4; ++i) {
        owned.push_back(makeSource("t" + std::to_string(i), 15, 2, 8,
                                   0.3, 512, 10 + i));
        raw.push_back(owned.back().get());
    }
    SystemParams p;
    p.numCores = 4;
    p.geometry.channels = 1;
    p.geometry.ranksPerChannel = 1;
    p.geometry.banksPerRank = 2;
    p.geometry.rowsPerBank = 65536;
    p.profileIntervalCpu = 100'000;
    p.partition = "dbp";
    System sys(p, raw);
    auto ipc = sys.runAndMeasure(150'000, 250'000);
    for (double v : ipc)
        EXPECT_GT(v, 0.0);
}

TEST(System, TinyWindowInOrderCoreRuns)
{
    // windowSize 1 degenerates the core to strictly in-order,
    // blocking loads — the opposite corner from the default OoO-ish
    // window.
    auto src = makeSource("inorder", 20, 2, 16, 0.2, 512, 1);
    std::vector<TraceSource *> raw{src.get()};
    SystemParams p = smallParams(1);
    p.core.windowSize = 1;
    p.core.mshrs = 1;
    p.core.issueWidth = 1;
    System sys(p, raw);
    auto ipc = sys.runAndMeasure(100'000, 200'000);
    EXPECT_GT(ipc[0], 0.0);
    EXPECT_LE(ipc[0], 1.0);
}

TEST(System, PartitionEnforcedEndToEnd)
{
    Pair p;
    SystemParams params = smallParams(2);
    params.partition = "ubp";
    System sys(params, p.raw);
    sys.run(500'000);

    // Every mapped page of every thread conforms to its color set.
    EXPECT_EQ(sys.osMemory().nonconformingPages(0), 0u);
    EXPECT_EQ(sys.osMemory().nonconformingPages(1), 0u);

    // And the color sets are disjoint.
    const auto &s0 = sys.osMemory().colorSet(0);
    const auto &s1 = sys.osMemory().colorSet(1);
    for (unsigned c : s0)
        EXPECT_EQ(std::count(s1.begin(), s1.end(), c), 0);
}

TEST(System, UbpIsolatesVictimRowLocality)
{
    // A streaming victim co-runs with three row-buffer-hostile
    // attackers on a bank-starved machine (4 threads, 8 banks).
    // Unpartitioned, the attackers destroy the victim's row hits;
    // under UBP the victim's row-hit rate recovers most of its alone
    // value. This is the paper's core motivation (claim C4/fig1).
    auto run_with = [](const std::string &part) {
        auto victim = makeSource("stream", 25, 1, 128, 0.0, 2048, 1);
        auto a1 = makeSource("rand1", 20, 6, 2, 0.6, 8192, 2);
        auto a2 = makeSource("rand2", 20, 6, 2, 0.6, 8192, 3);
        auto a3 = makeSource("rand3", 20, 6, 2, 0.6, 8192, 4);
        std::vector<TraceSource *> raw{victim.get(), a1.get(),
                                       a2.get(), a3.get()};
        SystemParams params = smallParams(4);
        params.geometry.channels = 1;
        params.geometry.ranksPerChannel = 1;
        params.geometry.banksPerRank = 8;
        params.geometry.rowsPerBank = 16384;
        params.partition = part;
        System sys(params, raw);
        sys.run(600'000);
        return sys.threadRowHitRate(0); // the streaming victim.
    };
    double shared_hit = run_with("none");
    double ubp_hit = run_with("ubp");
    EXPECT_GT(ubp_hit, shared_hit + 0.05)
        << "bank partitioning failed to protect row locality";
    EXPECT_GT(ubp_hit, 0.6);
}

TEST(System, DbpGrantsBanksByDemand)
{
    Pair p;
    SystemParams params = smallParams(2);
    params.partition = "dbp";
    System sys(params, p.raw);
    sys.run(800'000); // several profiling intervals.

    // The high-BLP irregular thread (1) must own more banks than the
    // single-stream streaming thread (0).
    std::size_t banks0 = sys.osMemory().colorSet(0).size();
    std::size_t banks1 = sys.osMemory().colorSet(1).size();
    EXPECT_GT(banks1, banks0);
}

TEST(System, DbpMeasuredProfilesAreSane)
{
    Pair p;
    SystemParams params = smallParams(2);
    params.partition = "dbp";
    System sys(params, p.raw);
    sys.run(500'000);

    const auto &profiles = sys.lastIntervalProfiles();
    ASSERT_EQ(profiles.size(), 2u);
    // Streaming thread: high locality, low BLP. Irregular: opposite.
    EXPECT_GT(profiles[0].rowBufferHitRate,
              profiles[1].rowBufferHitRate + 0.2);
    EXPECT_GT(profiles[1].blp, profiles[0].blp);
    EXPECT_GT(profiles[0].mpki, 1.0);
    EXPECT_GT(profiles[1].mpki, 1.0);
}

TEST(System, LightThreadsShareUnderDbp)
{
    auto heavy = makeSource("heavy", 25, 4, 8, 0.3, 4096, 3);
    auto light1 = makeSource("l1", 0.2, 1, 16, 0.1, 256, 4);
    auto light2 = makeSource("l2", 0.3, 1, 16, 0.1, 256, 5);
    std::vector<TraceSource *> raw{heavy.get(), light1.get(),
                                   light2.get()};
    SystemParams params = smallParams(3);
    params.partition = "dbp";
    System sys(params, raw);
    sys.run(800'000);

    // The two light threads share one (small) color set.
    EXPECT_EQ(sys.osMemory().colorSet(1), sys.osMemory().colorSet(2));
    EXPECT_LT(sys.osMemory().colorSet(1).size(),
              sys.osMemory().colorSet(0).size());
}

TEST(System, WritesReachDram)
{
    Pair p;
    System sys(smallParams(2), p.raw);
    sys.run(400'000);
    std::uint64_t writes = 0;
    for (unsigned c = 0; c < sys.numControllers(); ++c)
        writes += sys.controllerAt(c).channel().statWrites.value();
    EXPECT_GT(writes, 0u);
}

TEST(System, RefreshesOccurOnLongRuns)
{
    Pair p;
    System sys(smallParams(2), p.raw);
    // 4 CPU cycles per bus cycle; tREFI = 6240 bus cycles.
    sys.run(4 * 2 * 7000);
    std::uint64_t refreshes = 0;
    for (unsigned c = 0; c < sys.numControllers(); ++c)
        refreshes += sys.controllerAt(c).channel().statRefreshes.value();
    EXPECT_GT(refreshes, 0u);
}

TEST(System, MismatchedSourcesFatal)
{
    Pair p;
    SystemParams params = smallParams(3); // 3 cores, 2 sources.
    EXPECT_EXIT({ System sys(params, p.raw); },
                ::testing::ExitedWithCode(1), "trace sources");
}

TEST(System, SpecMixEndToEnd)
{
    auto mcf = makeSpecSource("mcf", 1);
    auto libq = makeSpecSource("libquantum", 2);
    auto gcc = makeSpecSource("gcc", 3);
    auto povray = makeSpecSource("povray", 4);
    std::vector<TraceSource *> raw{mcf.get(), libq.get(), gcc.get(),
                                   povray.get()};
    SystemParams params;
    params.numCores = 4;
    params.partition = "dbp";
    params.scheduler = "tcm";
    params.profileIntervalCpu = 250'000;
    System sys(params, raw);
    auto ipc = sys.runAndMeasure(200'000, 500'000);
    for (double v : ipc)
        EXPECT_GT(v, 0.0);
    // The compute-bound apps retire far faster than the hogs.
    EXPECT_GT(ipc[3], ipc[0]);
}

} // namespace
} // namespace dbpsim
