/**
 * @file
 * Run-time profiler tests: shadow row-buffer locality, incremental
 * BLP accounting, and interval-close arithmetic (MPKI, reset
 * semantics).
 */

#include <gtest/gtest.h>

#include "mem/profiler.hh"

namespace dbpsim {
namespace {

TEST(Profiler, ShadowRowHitRate)
{
    ThreadProfiler p(2, 4);
    // Thread 0: three accesses to the same (color,row) — first is a
    // cold miss, next two are shadow hits.
    p.onRequest(0, 1, 10);
    p.onRequest(0, 1, 10);
    p.onRequest(0, 1, 10);
    // Thread 1: alternating rows — all misses.
    p.onRequest(1, 2, 5);
    p.onRequest(1, 2, 6);
    p.onRequest(1, 2, 5);

    auto profiles = p.closeInterval({1000, 1000}, {0, 0});
    EXPECT_NEAR(profiles[0].rowBufferHitRate, 2.0 / 3.0, 1e-9);
    EXPECT_NEAR(profiles[1].rowBufferHitRate, 0.0, 1e-9);
}

TEST(Profiler, ShadowBuffersAreInterferenceFree)
{
    ThreadProfiler p(2, 4);
    // Threads ping-pong the same bank with different rows; a real row
    // buffer would alternate, but shadows are per thread: each thread
    // streams its own row and sees hits.
    for (int i = 0; i < 10; ++i) {
        p.onRequest(0, 0, 100);
        p.onRequest(1, 0, 200);
    }
    auto profiles = p.closeInterval({1000, 1000}, {0, 0});
    EXPECT_NEAR(profiles[0].rowBufferHitRate, 0.9, 1e-9);
    EXPECT_NEAR(profiles[1].rowBufferHitRate, 0.9, 1e-9);
}

TEST(Profiler, MpkiArithmetic)
{
    ThreadProfiler p(1, 2);
    for (int i = 0; i < 50; ++i)
        p.onRequest(0, 0, static_cast<std::uint64_t>(i));
    auto profiles = p.closeInterval({10000}, {0});
    EXPECT_EQ(profiles[0].requests, 50u);
    EXPECT_NEAR(profiles[0].mpki, 5.0, 1e-9);
}

TEST(Profiler, BlpAveragesBusyBanksOverBusyCycles)
{
    ThreadProfiler p(1, 8);
    // 2 banks busy for 3 cycles, then 1 bank for 2 cycles, then idle.
    p.onOutstandingInc(0, 0, 5);
    p.onOutstandingInc(0, 1, 9);
    EXPECT_EQ(p.busyBanks(0), 2u);
    p.tick();
    p.tick();
    p.tick();
    p.onOutstandingDec(0, 1, 9);
    p.tick();
    p.tick();
    p.onOutstandingDec(0, 0, 5);
    p.tick(); // idle: must not count.
    p.tick();

    auto profiles = p.closeInterval({1000}, {0});
    EXPECT_NEAR(profiles[0].blp, (2 * 3 + 1 * 2) / 5.0, 1e-9);
}

TEST(Profiler, ParallelismSumsAcrossChangesBetweenTicksAndCloses)
{
    ThreadProfiler p(2, 4);
    p.tick(); // nothing outstanding: counts nowhere.
    p.tick();
    p.onOutstandingInc(0, 0, 1);
    p.onOutstandingInc(0, 1, 2);
    p.onOutstandingInc(0, 3, 5, false); // a store: no row counted.
    p.tick(); // 3 banks, 3 outstanding, 2 rows, for 3 cycles.
    p.tick();
    p.tick();
    p.onOutstandingInc(0, 2, 9); // starts and ends between ticks.
    p.onOutstandingDec(0, 2, 9);
    p.onOutstandingInc(0, 0, 1); // same bank and row again.
    p.tick(); // 3 banks, 4 outstanding, 2 rows, for 2 cycles.
    p.tick();

    auto first = p.closeInterval({1000, 1000}, {0, 0});
    EXPECT_DOUBLE_EQ(first[0].blp, (3 * 3 + 3 * 2) / 5.0);
    EXPECT_DOUBLE_EQ(first[0].mlp, (3 * 3 + 4 * 2) / 5.0);
    EXPECT_DOUBLE_EQ(first[0].rowParallelism, (2 * 3 + 2 * 2) / 5.0);
    EXPECT_DOUBLE_EQ(first[1].blp, 0.0);
    EXPECT_DOUBLE_EQ(first[1].mlp, 0.0);

    p.onOutstandingDec(0, 1, 2);
    p.onOutstandingDec(0, 3, 5, false);
    p.tick(); // 1 bank, 2 outstanding, 1 row, for 4 cycles.
    p.tick();
    p.tick();
    p.tick();
    p.onOutstandingDec(0, 0, 1);
    p.tick(); // 1 bank, 1 outstanding, 1 row.
    p.onOutstandingDec(0, 0, 1);
    p.tick(); // idle again.

    auto second = p.closeInterval({1000, 1000}, {0, 0});
    EXPECT_DOUBLE_EQ(second[0].blp, (1 * 4 + 1) / 5.0);
    EXPECT_DOUBLE_EQ(second[0].mlp, (2 * 4 + 1) / 5.0);
    EXPECT_DOUBLE_EQ(second[0].rowParallelism, (1 * 4 + 1) / 5.0);
}

TEST(Profiler, MultipleRequestsSameBankCountOnce)
{
    ThreadProfiler p(1, 8);
    p.onOutstandingInc(0, 3, 7);
    p.onOutstandingInc(0, 3, 7);
    EXPECT_EQ(p.busyBanks(0), 1u);
    p.onOutstandingDec(0, 3, 7);
    EXPECT_EQ(p.busyBanks(0), 1u);
    p.onOutstandingDec(0, 3, 7);
    EXPECT_EQ(p.busyBanks(0), 0u);
}

TEST(Profiler, IntervalCountersResetButShadowPersists)
{
    ThreadProfiler p(1, 2);
    p.onRequest(0, 0, 7);
    auto first = p.closeInterval({1000}, {0});
    EXPECT_EQ(first[0].requests, 1u);

    // Same row again: the shadow remembers it across intervals.
    p.onRequest(0, 0, 7);
    auto second = p.closeInterval({1000}, {0});
    EXPECT_EQ(second[0].requests, 1u);
    EXPECT_NEAR(second[0].rowBufferHitRate, 1.0, 1e-9);
}

TEST(Profiler, FootprintAndInstructionsPassThrough)
{
    ThreadProfiler p(2, 2);
    auto profiles = p.closeInterval({123, 456}, {10, 20});
    EXPECT_EQ(profiles[0].instructions, 123u);
    EXPECT_EQ(profiles[1].instructions, 456u);
    EXPECT_EQ(profiles[0].footprintPages, 10u);
    EXPECT_EQ(profiles[1].footprintPages, 20u);
}

TEST(Profiler, ZeroInstructionIntervalIsSafe)
{
    ThreadProfiler p(1, 2);
    p.onRequest(0, 0, 1);
    auto profiles = p.closeInterval({0}, {0});
    EXPECT_DOUBLE_EQ(profiles[0].mpki, 0.0);
}

TEST(Profiler, UnderflowPanics)
{
    ThreadProfiler p(1, 2);
    EXPECT_DEATH(p.onOutstandingDec(0, 0, 1), "underflow");
}

TEST(Profiler, BadIndicesPanic)
{
    ThreadProfiler p(1, 2);
    EXPECT_DEATH(p.onRequest(3, 0, 0), "bad thread");
    EXPECT_DEATH(p.onRequest(0, 9, 0), "color out of range");
}

} // namespace
} // namespace dbpsim
