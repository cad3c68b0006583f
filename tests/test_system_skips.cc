/**
 * @file
 * The wake-ups and settle points of System::run's jumps over quiet
 * cycles, one System-level case each. Every case runs a scripted
 * machine twice, once as it is and once under SystemParams::fullTicks
 * (every core and controller ticked in full every cycle), and compares
 * what the two leave behind: every counter dumpStats() prints, the
 * instructions each core retired, the closed profiles, the cycles and
 * every DRAM command with its cycle, observed at the same points.
 */

#include <gtest/gtest.h>

#include <iomanip>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "run_digest.hh"
#include "sim/system.hh"
#include "trace/trace_file.hh"

namespace dbpsim {
namespace {

using Trace = std::vector<TraceRecord>;

/** A small machine with no refresh, so an idle controller sleeps
 *  until something wakes it. */
SystemParams
quietParams(unsigned cores)
{
    SystemParams p;
    p.numCores = cores;
    p.geometry.rowsPerBank = 4096;
    p.controller.refresh.mode = RefreshMode::None;
    p.profileIntervalCpu = 1'000'000'000;
    return p;
}

/** @p n records of @p gap bubbles and an access to a line of its own
 *  page, from page @p first_page on. */
Trace
accesses(unsigned n, std::uint32_t gap, bool write, Addr first_page = 0)
{
    Trace t;
    for (unsigned i = 0; i < n; ++i)
        t.push_back({gap, (first_page + i) * 4096, write});
    return t;
}

/** @p a then @p b. */
Trace
operator+(Trace a, const Trace &b)
{
    a.insert(a.end(), b.begin(), b.end());
    return a;
}

/** What a run leaves behind so far. */
std::string
observe(System &sys)
{
    std::ostringstream os;
    sys.dumpStats(os);
    for (InstCount n : sys.instructionSnapshot())
        os << "retired " << n << '\n';
    os << std::setprecision(17);
    for (const ThreadMemProfile &p : sys.lastIntervalProfiles())
        os << "profile " << p.mpki << ' ' << p.rowBufferHitRate << ' '
           << p.blp << ' ' << p.mlp << ' ' << p.rowParallelism << ' '
           << p.requests << '\n';
    return os.str();
}

/**
 * Runs @p script on the machine of @p params and @p traces (one per
 * core) with and without fullTicks and expects the same log. The
 * script drives the System and appends to the log; the log ends with
 * the command hash.
 */
template <class Script>
void
expectSameAsFullTicks(SystemParams params, const std::vector<Trace> &traces,
                      Script script)
{
    std::string logs[2];
    for (int full = 0; full < 2; ++full) {
        params.fullTicks = full == 1;
        std::vector<std::unique_ptr<TraceFileSource>> owned;
        std::vector<TraceSource *> sources;
        for (const Trace &t : traces) {
            owned.push_back(std::make_unique<TraceFileSource>("t", t));
            sources.push_back(owned.back().get());
        }
        System sys(params, sources);
        CommandHasher commands(nullptr);
        for (unsigned c = 0; c < sys.numControllers(); ++c)
            sys.controllerAt(c).setCommandObserver(&commands);
        script(sys, logs[full]);
        logs[full] += "commands " + hexDigest(commands.hash) + "\n";
    }
    EXPECT_EQ(logs[0], logs[1]);
}

/** Runs @p cycles and appends what the run left behind. */
void
runAndLog(System &sys, Cycle cycles, std::string &log)
{
    sys.run(cycles);
    log += "at " + std::to_string(sys.cpuCycle()) + "\n" + observe(sys);
}

// A bubble run reaching past an interval boundary: the jump stops at
// the boundary, and the boundary settles the core before it reads
// instructionsRetired() for the closed profile.
TEST(SystemSkips, JumpLandsOnIntervalBoundary)
{
    SystemParams p = quietParams(1);
    p.profileIntervalCpu = 10'000;
    expectSameAsFullTicks(p, {accesses(64, 3'000, false)},
                          [](System &sys, std::string &log) {
                              runAndLog(sys, 15'000, log);
                              for (int i = 0; i < 8; ++i)
                                  runAndLog(sys, 10'000, log);
                          });
}

// Loads that return while the core waits on them at the window head,
// over a sweep of bubble lengths and both clock ratios, so some sleeps
// begin and end in one memory cycle: the wake-up settles nothing then,
// and the core must still tick in the very next cycle.
TEST(SystemSkips, CoreWokenInTheMemoryCycleItFellAsleep)
{
    for (unsigned ratio : {1u, 4u}) {
        for (std::uint32_t gap = 0; gap < 48; ++gap) {
            SCOPED_TRACE("cpu_ratio " + std::to_string(ratio) + ", gap " +
                         std::to_string(gap));
            SystemParams p = quietParams(1);
            p.cpuRatio = ratio;
            p.core.windowSize = 16;
            p.core.mshrs = 2;
            expectSameAsFullTicks(p, {accesses(256, gap, false)},
                                  [](System &sys, std::string &log) {
                                      runAndLog(sys, 6'000, log);
                                  });
        }
    }
}

// Snapshots taken while one core sleeps on its MSHRs and another is
// inside a long bubble run: run() settles both before it returns.
TEST(SystemSkips, SnapshotMidSleepAndMidBubbleRun)
{
    SystemParams p = quietParams(2);
    p.core.mshrs = 4;
    expectSameAsFullTicks(
        p, {accesses(512, 0, false), accesses(8, 50'000, false, 1'000)},
        [](System &sys, std::string &log) {
            for (Cycle chunk : {1'001, 2'999, 7, 10'000, 33'333, 5})
                runAndLog(sys, chunk, log);
        });
}

// A load of a line whose store still waits in the write queue is
// forwarded. The controller sleeps (nothing to read, too few writes
// to drain, no refresh), so the forward's enqueue call must wake it
// to deliver the data two cycles later.
TEST(SystemSkips, ForwardedReadWakesController)
{
    Trace t;
    for (Addr page = 0; page < 64; ++page) {
        t.push_back({0, page * 4096, true});
        t.push_back({200, page * 4096, false});
        t.push_back({300, 0x100000 + page * 4096, false});
    }
    expectSameAsFullTicks(quietParams(1), {t},
                          [](System &sys, std::string &log) {
                              runAndLog(sys, 40'000, log);
                          });
}

// Stores trickling in below every watermark: the controller sleeps
// between pushes until the eighth queued write lets the idle-write
// rule start a drain, which the push must wake it for.
TEST(SystemSkips, WritePushBelowWatermarkWakesController)
{
    expectSameAsFullTicks(quietParams(1), {accesses(256, 150, true)},
                          [](System &sys, std::string &log) {
                              runAndLog(sys, 30'000, log);
                              runAndLog(sys, 12'345, log);
                          });
}

// A migration charge blocks a bank of a sleeping controller. A charge
// only delays readiness, so no horizon comes earlier, but the charge
// still wakes the controller: every call that changes what a tick
// sees does.
TEST(SystemSkips, MigrationChargeWakesController)
{
    expectSameAsFullTicks(
        quietParams(1),
        {accesses(64, 400, false) + accesses(64, 20, false, 64)},
        [](System &sys, std::string &log) {
            for (int i = 0; i < 40; ++i) {
                runAndLog(sys, 997, log);
                MemoryController &mc = sys.controllerAt(0);
                mc.applyMigrationCost(0, static_cast<unsigned>(i) % 8,
                                      sys.memCycle(), 150);
                if (!sys.params().fullTicks) {
                    EXPECT_LE(mc.wakeAt(), sys.memCycle())
                        << "a migration charge left the controller asleep";
                }
            }
            runAndLog(sys, 5'000, log);
        });
}

// Bursts of stores with no reads: the idle-write rule starts a drain at
// eight queued writes, the drain stops at the low watermark and the
// rule starts it again at once, with no queue change in between. A
// tick that ends a drain issues nothing, and the controller must not
// sleep on a drain mode that flips back.
TEST(SystemSkips, DrainModeDoubleFlipKeepsControllerAwake)
{
    SystemParams p = quietParams(1);
    p.controller.idleWriteThresh = 8;
    p.controller.writeLoWatermark = 16;
    Trace t;
    for (Addr burst = 0; burst < 16; ++burst)
        t = t + accesses(24, 0, true, burst * 64) +
            accesses(1, 4'000, false, 10'000 + burst);
    expectSameAsFullTicks(p, {t}, [](System &sys, std::string &log) {
        runAndLog(sys, 70'000, log);
    });
}

// TCM rotates its bandwidth cluster every 100 memory cycles. Long
// bubbles leave stretches in which no core and no controller has work,
// with shuffles inside them, between bursts where three heavy threads
// contend for the same banks: every shuffle must still happen, at its
// own cycle.
TEST(SystemSkips, TcmShuffleInsideSkippedStretch)
{
    SystemParams p = quietParams(3);
    p.scheduler = "tcm";
    p.sched.tcmShuffleInterval = 100;
    p.profileIntervalCpu = 20'000;
    std::vector<Trace> traces;
    for (Addr c = 0; c < 3; ++c) {
        Trace t;
        for (unsigned burst = 0; burst < 32; ++burst)
            t = t + accesses(24, 0, false, c * 4'096 + burst * 48) +
                accesses(1, 6'000 + 1'000 * static_cast<unsigned>(c),
                         false, 100'000 + c * 64 + burst);
        traces.push_back(t);
    }
    expectSameAsFullTicks(p, traces, [](System &sys, std::string &log) {
        for (int i = 0; i < 6; ++i)
            runAndLog(sys, 20'000, log);
    });
}

} // namespace
} // namespace dbpsim
