/**
 * @file
 * Memory-controller tests: end-to-end request service through the
 * DRAM FSM, read latencies for hits vs conflicts, write-drain
 * hysteresis, write-to-read forwarding, coalescing, refresh service,
 * backpressure, per-thread accounting, the per-bank/per-rank
 * demand view the refresh engine reads, and the precharge guard under
 * a thread ranking.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "mem/controller.hh"
#include "mem/sched_frfcfs.hh"

namespace dbpsim {
namespace {

DramGeometry
geo()
{
    DramGeometry g;
    g.channels = 1;
    g.ranksPerChannel = 1;
    g.banksPerRank = 8;
    g.rowsPerBank = 1024;
    g.rowBytes = 8192;
    g.lineBytes = 64;
    g.pageBytes = 4096;
    return g;
}

/** Records every issued command. */
class CommandLog : public CommandObserver
{
  public:
    void onCommand(const CmdEvent &ev) override { events.push_back(ev); }

    /** Cycle of the first @p cmd to @p bank; kNeverCycle if none. */
    Cycle
    first(DramCmd cmd, unsigned bank) const
    {
        for (const CmdEvent &ev : events)
            if (ev.cmd == cmd && ev.bank == bank)
                return ev.cycle;
        return kNeverCycle;
    }

    std::vector<CmdEvent> events;
};

/**
 * Orders requests by a fixed thread rank (higher first), then row
 * hit, then age: the shape of TCM's and ATLAS's orders, under which a
 * conflict can outrank a row hit.
 */
class RankingScheduler : public Scheduler
{
  public:
    std::string name() const override { return "ranking"; }

    bool
    higherPriority(const MemRequest &a, const MemRequest &b,
                   const SchedContext &ctx) const override
    {
        const int ra = threadRank[static_cast<unsigned>(a.tid)];
        const int rb = threadRank[static_cast<unsigned>(b.tid)];
        if (ra != rb)
            return ra > rb;
        const bool ha = ctx.rowHit(a);
        const bool hb = ctx.rowHit(b);
        if (ha != hb)
            return ha;
        return olderFirst(a, b);
    }

    std::vector<int> threadRank = std::vector<int>(4, 0);
};

/** Records completions. */
class Catcher : public MemClient
{
  public:
    void readComplete(std::uint64_t tag) override
    {
        completed.push_back(tag);
    }
    std::vector<std::uint64_t> completed;
};

class ControllerFixture : public ::testing::Test
{
  protected:
    ControllerFixture()
        : map_(geo()),
          timing_(ddr3_1600())
    {
        ControllerParams params;
        params.numThreads = 4;
        params.readQueueSize = 16;
        params.writeQueueSize = 16;
        params.writeHiWatermark = 12;
        params.writeLoWatermark = 4;
        mc_ = std::make_unique<MemoryController>(
            0, map_, timing_, params, &sched_, nullptr);
    }

    /** Address in (bank, row, col) of rank 0, channel 0. */
    Addr
    addr(unsigned bank, std::uint64_t row, std::uint64_t col = 0)
    {
        DramCoord c;
        c.channel = 0;
        c.rank = 0;
        c.bank = bank;
        c.row = row;
        c.col = col;
        return map_.encode(c);
    }

    /** Tick until the catcher holds @p n completions (with a bound). */
    Cycle
    runUntil(Catcher &cat, std::size_t n, Cycle limit = 100000)
    {
        while (cat.completed.size() < n && now_ < limit)
            mc_->tick(now_++);
        return now_;
    }

    /** An issued command: what, which bank and row, which thread. */
    using Issued = std::tuple<DramCmd, unsigned, std::uint64_t, ThreadId>;

    /**
     * Under @p sched, with rows 5 of bank 0 and 7 of bank 1 open and
     * both banks ready to precharge, three reads arrive at once:
     * thread 3 hits bank 1, thread 1 hits bank 0 and thread 2
     * conflicts with that hit. Thread 3 ranks first, so its RD takes
     * the column slot and bank 0's hit waits out tCCD while the
     * conflict's PRE is legal: only the precharge guard decides.
     * Returns the commands from then on, once every read completed.
     */
    std::vector<Issued>
    rankedHitAndConflict(RankingScheduler &sched)
    {
        ControllerParams params;
        params.numThreads = 4;
        MemoryController mc(0, map_, timing_, params, &sched, nullptr);
        CommandLog log;
        mc.setCommandObserver(&log);
        Catcher cat;
        EXPECT_TRUE(mc.enqueueRead(addr(0, 5), 0, &cat, 0, 0));
        EXPECT_TRUE(mc.enqueueRead(addr(1, 7), 0, &cat, 1, 0));
        Cycle c = 0;
        while (!(cat.completed.size() == 2 &&
                 mc.channel().canIssue(DramCmd::Precharge, 0, 0, 5, c)) &&
               c < 1000)
            mc.tick(c++);
        const std::size_t before = log.events.size();
        EXPECT_TRUE(mc.enqueueRead(addr(1, 7, 1), 3, &cat, 2, c));
        EXPECT_TRUE(mc.enqueueRead(addr(0, 5, 1), 1, &cat, 3, c));
        EXPECT_TRUE(mc.enqueueRead(addr(0, 9), 2, &cat, 4, c));
        while (cat.completed.size() < 5 && c < 2000)
            mc.tick(c++);
        EXPECT_EQ(cat.completed.size(), 5u);
        std::vector<Issued> cmds;
        for (std::size_t i = before; i < log.events.size(); ++i) {
            const CmdEvent &ev = log.events[i];
            cmds.emplace_back(ev.cmd, ev.bank, ev.row, ev.tid);
        }
        return cmds;
    }

    AddressMap map_;
    DramTiming timing_;
    FrFcfsScheduler sched_;
    std::unique_ptr<MemoryController> mc_;
    Cycle now_ = 0;
};

TEST_F(ControllerFixture, ColdReadLatencyIsActPlusClPlusBurst)
{
    Catcher cat;
    ASSERT_TRUE(mc_->enqueueRead(addr(0, 5), 0, &cat, 77, 0));
    runUntil(cat, 1);
    ASSERT_EQ(cat.completed.size(), 1u);
    EXPECT_EQ(cat.completed[0], 77u);
    // ACT at cycle 0 earliest (tick 0), RD after tRCD, data after
    // tCL + tBURST; completion delivered on the following tick.
    Cycle expected = timing_.tRCD + timing_.tCL + timing_.tBURST;
    EXPECT_GE(now_, expected);
    EXPECT_LE(now_, expected + 4);
}

TEST_F(ControllerFixture, RowHitFasterThanConflict)
{
    Catcher cat;
    ASSERT_TRUE(mc_->enqueueRead(addr(0, 5, 0), 0, &cat, 0, 0));
    runUntil(cat, 1);
    Cycle first_done = now_;

    // Same row: hit — no ACT needed.
    ASSERT_TRUE(mc_->enqueueRead(addr(0, 5, 1), 0, &cat, 1, now_));
    runUntil(cat, 2);
    Cycle hit_latency = now_ - first_done;

    // Different row, same bank: conflict — PRE + ACT + RD.
    Cycle conflict_start = now_;
    ASSERT_TRUE(mc_->enqueueRead(addr(0, 9, 0), 0, &cat, 2, now_));
    runUntil(cat, 3);
    Cycle conflict_latency = now_ - conflict_start;

    EXPECT_LT(hit_latency, conflict_latency);
    EXPECT_GT(conflict_latency,
              timing_.tRP + timing_.tRCD + timing_.tCL);
}

TEST_F(ControllerFixture, PerThreadRowHitAccounting)
{
    Catcher cat;
    ASSERT_TRUE(mc_->enqueueRead(addr(0, 5, 0), 2, &cat, 0, 0));
    runUntil(cat, 1);
    ASSERT_TRUE(mc_->enqueueRead(addr(0, 5, 1), 2, &cat, 1, now_));
    runUntil(cat, 2);

    const auto &ts = mc_->threadStats(2);
    EXPECT_EQ(ts.reads, 2u);
    EXPECT_EQ(ts.rowMisses, 1u);
    EXPECT_EQ(ts.rowHits, 1u);
    EXPECT_EQ(ts.readsCompleted, 2u);
    EXPECT_GT(ts.readLatencySum, 0u);
}

TEST_F(ControllerFixture, FrFcfsServesRowHitBeforeOlderConflict)
{
    Catcher cat;
    // Open row 5 via a first read.
    ASSERT_TRUE(mc_->enqueueRead(addr(0, 5, 0), 0, &cat, 0, 0));
    runUntil(cat, 1);

    // Enqueue a conflict (older) then a hit (younger) back to back.
    ASSERT_TRUE(mc_->enqueueRead(addr(0, 9, 0), 0, &cat, 1, now_));
    ASSERT_TRUE(mc_->enqueueRead(addr(0, 5, 3), 0, &cat, 2, now_));
    runUntil(cat, 3);
    // The row hit (tag 2) completes before the conflict (tag 1).
    ASSERT_EQ(cat.completed.size(), 3u);
    EXPECT_EQ(cat.completed[1], 2u);
    EXPECT_EQ(cat.completed[2], 1u);
}

TEST_F(ControllerFixture, WriteForwardingServesReadFromWriteQueue)
{
    Catcher cat;
    Addr a = addr(3, 7);
    ASSERT_TRUE(mc_->enqueueWrite(a, 1, 0));
    ASSERT_TRUE(mc_->enqueueRead(a, 1, &cat, 5, 0));
    EXPECT_EQ(mc_->statWriteForwards.value(), 1u);
    // Forwarded read completes in a couple of cycles, far below any
    // DRAM latency.
    runUntil(cat, 1, 10);
    ASSERT_EQ(cat.completed.size(), 1u);
    EXPECT_EQ(cat.completed[0], 5u);
}

TEST_F(ControllerFixture, WriteCoalescing)
{
    Addr a = addr(2, 4);
    ASSERT_TRUE(mc_->enqueueWrite(a, 0, 0));
    ASSERT_TRUE(mc_->enqueueWrite(a, 0, 1));
    EXPECT_EQ(mc_->statWriteCoalesced.value(), 1u);
    EXPECT_EQ(mc_->writeQueueDepth(), 1u);
}

TEST_F(ControllerFixture, WriteDrainHysteresis)
{
    // Fill writes to the high watermark; controller must enter write
    // mode and drain down to the low watermark.
    for (unsigned i = 0; i < 12; ++i)
        ASSERT_TRUE(mc_->enqueueWrite(addr(i % 8, i), 0, 0));
    EXPECT_EQ(mc_->writeQueueDepth(), 12u);

    bool entered = false;
    for (int i = 0; i < 5000 && mc_->writeQueueDepth() > 4; ++i) {
        mc_->tick(now_++);
        entered = entered || mc_->inWriteMode();
    }
    EXPECT_TRUE(entered);
    EXPECT_LE(mc_->writeQueueDepth(), 4u);
}

TEST_F(ControllerFixture, IdleWriteDrain)
{
    // Below the high watermark but no reads: opportunistic drain.
    for (unsigned i = 0; i < 9; ++i)
        ASSERT_TRUE(mc_->enqueueWrite(addr(i % 8, i), 0, 0));
    for (int i = 0; i < 5000 && mc_->writeQueueDepth() > 4; ++i)
        mc_->tick(now_++);
    EXPECT_LE(mc_->writeQueueDepth(), 4u);
}

TEST_F(ControllerFixture, ReadQueueBackpressure)
{
    Catcher cat;
    unsigned accepted = 0;
    for (unsigned i = 0; i < 32; ++i) {
        if (mc_->enqueueRead(addr(i % 8, i + 1, i % 64), 0, &cat, i, 0))
            ++accepted;
    }
    EXPECT_EQ(accepted, 16u); // queue capacity.
    EXPECT_GT(mc_->statReadQueueFull.value(), 0u);

    // Draining frees capacity again.
    runUntil(cat, 4);
    EXPECT_TRUE(mc_->enqueueRead(addr(0, 99), 0, &cat, 100, now_));
}

TEST_F(ControllerFixture, RefreshHappensPeriodically)
{
    Catcher cat;
    // Run a steady read stream for > 2 tREFI and confirm refreshes.
    unsigned tag = 0;
    for (Cycle c = 0; c < 3 * timing_.tREFI; ++c) {
        if (c % 50 == 0)
            mc_->enqueueRead(addr(tag % 8, (tag / 8) % 64), 0, &cat,
                             tag, c), ++tag;
        mc_->tick(c);
    }
    EXPECT_GE(mc_->channel().statRefreshes.value(), 2u);
}

TEST_F(ControllerFixture, ClosedPagePolicyAutoPrecharges)
{
    ControllerParams params;
    params.numThreads = 4;
    params.pagePolicy = PagePolicy::Closed;
    MemoryController closed(0, map_, timing_, params, &sched_, nullptr);

    Catcher cat;
    ASSERT_TRUE(closed.enqueueRead(addr(0, 5), 0, &cat, 0, 0));
    Cycle c = 0;
    while (cat.completed.empty() && c < 1000)
        closed.tick(c++);
    ASSERT_EQ(cat.completed.size(), 1u);
    // The bank is closed after the auto-precharge read.
    EXPECT_FALSE(closed.channel().bank(0, 0).open());
}

TEST_F(ControllerFixture, OpenAdaptiveClosesIdleRows)
{
    ControllerParams params;
    params.numThreads = 4;
    params.pagePolicy = PagePolicy::OpenAdaptive;
    params.rowIdleTimeout = 50;
    MemoryController mc(0, map_, timing_, params, &sched_, nullptr);

    Catcher cat;
    ASSERT_TRUE(mc.enqueueRead(addr(0, 5), 0, &cat, 0, 0));
    Cycle c = 0;
    while (cat.completed.empty() && c < 1000)
        mc.tick(c++);
    ASSERT_TRUE(mc.channel().bank(0, 0).open());

    // Idle past the timeout: the controller closes the row.
    Cycle deadline = c + params.rowIdleTimeout + timing_.tRAS + 10;
    while (mc.channel().bank(0, 0).open() && c < deadline)
        mc.tick(c++);
    EXPECT_FALSE(mc.channel().bank(0, 0).open());
    EXPECT_GE(mc.statIdleRowCloses.value(), 1u);
}

TEST_F(ControllerFixture, OpenAdaptiveKeepsWantedRows)
{
    ControllerParams params;
    params.numThreads = 4;
    params.pagePolicy = PagePolicy::OpenAdaptive;
    params.rowIdleTimeout = 30;
    // Starve service so a same-row request stays queued: block the
    // bank via the migration-cost hook, then check the row survives
    // the idle timeout because a requester is waiting.
    MemoryController mc(0, map_, timing_, params, &sched_, nullptr);
    Catcher cat;
    ASSERT_TRUE(mc.enqueueRead(addr(0, 5, 0), 0, &cat, 0, 0));
    Cycle c = 0;
    while (cat.completed.empty() && c < 1000)
        mc.tick(c++);
    ASSERT_TRUE(mc.channel().bank(0, 0).open());

    // Enqueue a same-row read but freeze the bank so it cannot issue.
    mc.applyMigrationCost(0, 0, c, 500);
    ASSERT_TRUE(mc.enqueueRead(addr(0, 5, 2), 0, &cat, 1, c));
    Cycle end = c + 200;
    while (c < end)
        mc.tick(c++);
    // Row still open: its pending requester protected it.
    EXPECT_TRUE(mc.channel().bank(0, 0).open());
}

TEST_F(ControllerFixture, ProfilerSeesRequestsAndOutstanding)
{
    ThreadProfiler prof(4, map_.numColors());
    ControllerParams params;
    params.numThreads = 4;
    MemoryController mc(0, map_, timing_, params, &sched_, &prof);

    Catcher cat;
    ASSERT_TRUE(mc.enqueueRead(addr(2, 5), 1, &cat, 0, 0));
    unsigned color = map_.colorOf(map_.decode(addr(2, 5)));
    (void)color;
    EXPECT_EQ(prof.busyBanks(1), 1u);

    Cycle c = 0;
    while (cat.completed.empty() && c < 1000) {
        mc.tick(c++);
        prof.tick();
    }
    EXPECT_EQ(prof.busyBanks(1), 0u);

    auto profiles = prof.closeInterval({1000, 1000, 1000, 1000},
                                       {0, 0, 0, 0});
    EXPECT_EQ(profiles[1].requests, 1u);
    EXPECT_GT(profiles[1].blp, 0.0);
}

TEST_F(ControllerFixture, DemandViewTracksQueuedRequests)
{
    // Two ranks, so the per-rank view has something to tell apart;
    // idleWriteThresh = 1 lets the lone write drain once reads are
    // done.
    DramGeometry g = geo();
    g.ranksPerChannel = 2;
    AddressMap map(g);
    ControllerParams params;
    params.numThreads = 4;
    params.idleWriteThresh = 1;
    MemoryController mc(0, map, timing_, params, &sched_, nullptr);

    auto at = [&](unsigned rank, unsigned bank, std::uint64_t row) {
        DramCoord c;
        c.channel = 0;
        c.rank = rank;
        c.bank = bank;
        c.row = row;
        return map.encode(c);
    };
    using Bank = std::pair<unsigned, unsigned>;
    auto banksWithDemand = [&] {
        std::vector<Bank> banks;
        for (unsigned r = 0; r < g.ranksPerChannel; ++r)
            for (unsigned b = 0; b < g.banksPerRank; ++b)
                if (mc.hasBankDemand(r, b))
                    banks.emplace_back(r, b);
        return banks;
    };
    auto ranksWithDemand = [&] {
        std::vector<unsigned> ranks;
        for (unsigned r = 0; r < g.ranksPerChannel; ++r)
            if (mc.hasRankDemand(r))
                ranks.push_back(r);
        return ranks;
    };

    Catcher cat;
    const Addr written = at(1, 6, 9);
    ASSERT_TRUE(mc.enqueueRead(at(0, 2, 5), 0, &cat, 0, 0));
    ASSERT_TRUE(mc.enqueueWrite(written, 1, 0));
    const std::vector<Bank> both = {{0, 2}, {1, 6}};
    EXPECT_EQ(banksWithDemand(), both);
    EXPECT_EQ(ranksWithDemand(), (std::vector<unsigned>{0, 1}));

    // A coalesced write and a forwarded read queue nothing new.
    ASSERT_TRUE(mc.enqueueWrite(written, 1, 0));
    EXPECT_EQ(mc.statWriteCoalesced.value(), 1u);
    ASSERT_TRUE(mc.enqueueRead(written, 1, &cat, 1, 0));
    EXPECT_EQ(mc.statWriteForwards.value(), 1u);
    EXPECT_EQ(banksWithDemand(), both);
    EXPECT_EQ(ranksWithDemand(), (std::vector<unsigned>{0, 1}));

    // The read's demand clears when its column command issues, before
    // its data returns.
    Cycle c = 0;
    while (mc.channel().statReads.value() == 0 && c < 1000)
        mc.tick(c++);
    ASSERT_EQ(mc.channel().statReads.value(), 1u);
    EXPECT_EQ(std::count(cat.completed.begin(), cat.completed.end(), 0u),
              0);
    EXPECT_EQ(banksWithDemand(), (std::vector<Bank>{{1, 6}}));
    EXPECT_EQ(ranksWithDemand(), (std::vector<unsigned>{1}));

    // The write drains once the read has returned; then no demand is
    // left anywhere.
    while (mc.channel().statWrites.value() == 0 && c < 2000)
        mc.tick(c++);
    ASSERT_EQ(mc.channel().statWrites.value(), 1u);
    EXPECT_EQ(std::count(cat.completed.begin(), cat.completed.end(), 0u),
              1);
    EXPECT_TRUE(banksWithDemand().empty());
    EXPECT_TRUE(ranksWithDemand().empty());
}

TEST_F(ControllerFixture, MigrationCostBlocksServicing)
{
    Catcher cat;
    // Block bank 0 heavily, then issue a read to it and one to bank 1.
    mc_->applyMigrationCost(0, 0, 0, 2000);
    ASSERT_TRUE(mc_->enqueueRead(addr(0, 5), 0, &cat, 0, 0));
    ASSERT_TRUE(mc_->enqueueRead(addr(1, 5), 0, &cat, 1, 0));
    runUntil(cat, 2, 5000);
    ASSERT_EQ(cat.completed.size(), 2u);
    // Bank 1's read (tag 1) finishes first despite equal age.
    EXPECT_EQ(cat.completed[0], 1u);
    EXPECT_EQ(cat.completed[1], 0u);
}

TEST_F(ControllerFixture, ReadEnqueuedWhileOthersWaitIssuesOnTime)
{
    // Bank 0's read is activated at cycle 0 and then waits out tRCD.
    // A read to bank 1 arriving at cycle 3 is activated as soon as
    // tRRD allows, not when bank 0's column command next issues.
    CommandLog log;
    mc_->setCommandObserver(&log);
    Catcher cat;
    ASSERT_TRUE(mc_->enqueueRead(addr(0, 5), 0, &cat, 0, 0));
    while (now_ < 3)
        mc_->tick(now_++);
    ASSERT_TRUE(mc_->enqueueRead(addr(1, 5), 0, &cat, 1, now_));
    runUntil(cat, 2);
    ASSERT_EQ(cat.completed.size(), 2u);
    EXPECT_EQ(log.first(DramCmd::Activate, 0), 0u);
    EXPECT_EQ(log.first(DramCmd::Activate, 1),
              std::max<Cycle>(3, timing_.tRRD));
    EXPECT_EQ(log.first(DramCmd::Read, 0), timing_.tRCD);
}

TEST_F(ControllerFixture, MigrationCostMovesWaitingReadExactly)
{
    CommandLog log;
    mc_->setCommandObserver(&log);
    Catcher cat;
    ASSERT_TRUE(mc_->enqueueRead(addr(0, 5), 0, &cat, 0, 0));
    while (now_ < 2)
        mc_->tick(now_++);
    mc_->applyMigrationCost(0, 0, 2, 20);
    runUntil(cat, 1);
    ASSERT_EQ(cat.completed.size(), 1u);
    EXPECT_EQ(log.first(DramCmd::Activate, 0), 0u);
    EXPECT_EQ(log.first(DramCmd::Read, 0), 22u);
}

TEST_F(ControllerFixture, HigherRankedConflictClosesALowerRankedHitsRow)
{
    // The conflict outranks the queued hit, so the guard lets its PRE
    // close the row the hit wants; the hit waits for its own ACT.
    RankingScheduler sched;
    sched.threadRank = {0, 1, 2, 3};
    const std::vector<Issued> expected = {
        {DramCmd::Read, 1, 7, 3},      {DramCmd::Precharge, 0, 5, 2},
        {DramCmd::Activate, 0, 9, 2},  {DramCmd::Read, 0, 9, 2},
        {DramCmd::Precharge, 0, 9, 1}, {DramCmd::Activate, 0, 5, 1},
        {DramCmd::Read, 0, 5, 1},
    };
    EXPECT_EQ(rankedHitAndConflict(sched), expected);
}

TEST_F(ControllerFixture, HigherRankedHitReadsBeforeTheConflictPrecharges)
{
    // With the ranks swapped the hit outranks the conflict: the guard
    // holds the legal PRE back until the hit's RD has issued.
    RankingScheduler sched;
    sched.threadRank = {0, 2, 1, 3};
    const std::vector<Issued> expected = {
        {DramCmd::Read, 1, 7, 3},      {DramCmd::Read, 0, 5, 1},
        {DramCmd::Precharge, 0, 5, 2}, {DramCmd::Activate, 0, 9, 2},
        {DramCmd::Read, 0, 9, 2},
    };
    EXPECT_EQ(rankedHitAndConflict(sched), expected);
}

} // namespace
} // namespace dbpsim
