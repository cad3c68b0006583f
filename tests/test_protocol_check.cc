/**
 * @file
 * Protocol-checker tests. Three layers:
 *
 *  1. Injection: feed the checker hand-built command streams that each
 *     break exactly one rule (early ACT after PRE, a fifth ACT inside
 *     tFAW, a read to a closed bank, an access outside the thread's
 *     partition, ...) and assert precisely that violation class fires.
 *  2. Cross-validation: attach the checker to a real DramChannel and
 *     replay a randomized legal command stream — two independent
 *     implementations of the DDR rules must agree that it is clean.
 *  3. End-to-end: full System / runMixJob runs of every scheme
 *     must complete with zero violations (fail-fast panics otherwise).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "check/protocol_check.hh"
#include "common/random.hh"
#include "dram/channel.hh"
#include "dram/refresh.hh"
#include "sim/experiment.hh"
#include "sim/schemes.hh"
#include "sim/system.hh"
#include "trace/synthetic.hh"

namespace dbpsim {
namespace {

/** One channel, two ranks, eight banks: 16 bank colors. */
DramGeometry
geo()
{
    DramGeometry g;
    g.channels = 1;
    g.ranksPerChannel = 2;
    g.banksPerRank = 8;
    g.rowsPerBank = 64;
    g.rowBytes = 8192;
    g.lineBytes = 64;
    g.pageBytes = 4096;
    return g;
}

/** Build a CmdEvent on channel 0 without aggregate-order pitfalls. */
CmdEvent
ev(DramCmd cmd, unsigned rank, unsigned bank, std::uint64_t row,
   Cycle cycle, ThreadId tid = kInvalidThread)
{
    CmdEvent e;
    e.channel = 0;
    e.cmd = cmd;
    e.rank = rank;
    e.bank = bank;
    e.row = row;
    e.cycle = cycle;
    e.tid = tid;
    return e;
}

// ---------------------------------------------------------------------
// Layer 1: injection tests — one deliberate violation each.
// ---------------------------------------------------------------------

TEST(ProtocolCheck, CleanLegalSequenceIsViolationFree)
{
    DramTiming tm = ddr3_1600();
    ProtocolChecker pc(geo(), tm, 2);

    pc.onCommand(ev(DramCmd::Activate, 0, 0, 7, 0));
    Cycle rd1 = tm.tRCD;
    pc.onCommand(ev(DramCmd::Read, 0, 0, 7, rd1));
    Cycle rd2 = rd1 + tm.tCCD;
    pc.onCommand(ev(DramCmd::Read, 0, 0, 7, rd2));
    Cycle pre = std::max(tm.tRAS, rd2 + tm.tRTP);
    pc.onCommand(ev(DramCmd::Precharge, 0, 0, 0, pre));
    Cycle act2 = std::max(pre + tm.tRP, tm.tRC);
    pc.onCommand(ev(DramCmd::Activate, 0, 0, 9, act2));
    Cycle wr = act2 + tm.tRCD;
    pc.onCommand(ev(DramCmd::Write, 0, 0, 9, wr));
    Cycle wr_data_end = wr + tm.tCWL + tm.tBURST;
    Cycle rd3 = wr_data_end + tm.tWTR;
    pc.onCommand(ev(DramCmd::Read, 0, 0, 9, rd3));
    Cycle pre2 = std::max({act2 + tm.tRAS, rd3 + tm.tRTP,
                           wr_data_end + tm.tWR});
    pc.onCommand(ev(DramCmd::Precharge, 0, 0, 0, pre2));
    Cycle ref = std::max(pre2 + tm.tRP, act2 + tm.tRC);
    pc.onCommand(ev(DramCmd::Refresh, 0, 0, 0, ref));

    EXPECT_EQ(pc.violations(), 0u) << pc.lastViolation();
    EXPECT_EQ(pc.commandsChecked(), 9u);
    pc.finalize(ref + 1);
    EXPECT_EQ(pc.violations(), 0u) << pc.lastViolation();
}

TEST(ProtocolCheck, EarlyActivateAfterPrechargeFlagsTrp)
{
    DramTiming tm = ddr3_1600();
    ProtocolChecker pc(geo(), tm, 1);
    pc.onCommand(ev(DramCmd::Activate, 0, 0, 1, 0));
    // Keep the row open past tRC so only tRP can trip below.
    Cycle pre = tm.tRC + 1;
    pc.onCommand(ev(DramCmd::Precharge, 0, 0, 0, pre));
    pc.onCommand(ev(DramCmd::Activate, 0, 0, 2, pre + tm.tRP - 1));
    EXPECT_EQ(pc.violations(Violation::TimingTRP), 1u);
    EXPECT_EQ(pc.violations(), 1u) << pc.lastViolation();
}

TEST(ProtocolCheck, EarlyPrechargeFlagsTras)
{
    DramTiming tm = ddr3_1600();
    ProtocolChecker pc(geo(), tm, 1);
    pc.onCommand(ev(DramCmd::Activate, 0, 0, 1, 0));
    pc.onCommand(ev(DramCmd::Precharge, 0, 0, 0, tm.tRAS - 1));
    EXPECT_EQ(pc.violations(Violation::TimingTRAS), 1u);
    EXPECT_EQ(pc.violations(), 1u) << pc.lastViolation();
}

TEST(ProtocolCheck, BackToBackActivateFlagsTrc)
{
    // The DDR3 presets have tRC == tRAS + tRP exactly, which makes tRC
    // indistinguishable from the PRE+tRP path; stretch it to isolate.
    DramTiming tm = ddr3_1600();
    tm.tRC = tm.tRAS + tm.tRP + 4;
    ProtocolChecker pc(geo(), tm, 1);
    pc.onCommand(ev(DramCmd::Activate, 0, 0, 1, 0));
    pc.onCommand(ev(DramCmd::Precharge, 0, 0, 0, tm.tRAS));
    // tRP satisfied, tRC not quite.
    pc.onCommand(ev(DramCmd::Activate, 0, 0, 2, tm.tRC - 1));
    EXPECT_EQ(pc.violations(Violation::TimingTRC), 1u);
    EXPECT_EQ(pc.violations(), 1u) << pc.lastViolation();
}

TEST(ProtocolCheck, FifthActivateInsideTfawFlagsTfaw)
{
    DramTiming tm = ddr3_1600();
    ASSERT_LT(4 * tm.tRRD, tm.tFAW) << "preset cannot trip tFAW";
    ProtocolChecker pc(geo(), tm, 1);
    Cycle now = 0;
    for (unsigned b = 0; b < 4; ++b) {
        pc.onCommand(ev(DramCmd::Activate, 0, b, 1, now));
        now += tm.tRRD;
    }
    // tRRD is honored but four ACTs are inside the rolling window.
    pc.onCommand(ev(DramCmd::Activate, 0, 4, 1, now));
    EXPECT_EQ(pc.violations(Violation::TimingTFAW), 1u);
    EXPECT_EQ(pc.violations(), 1u) << pc.lastViolation();
    // The other rank's window is independent.
    pc.onCommand(ev(DramCmd::Activate, 1, 0, 1, now));
    EXPECT_EQ(pc.violations(), 1u) << pc.lastViolation();
}

TEST(ProtocolCheck, TightActivatePairFlagsTrrd)
{
    DramTiming tm = ddr3_1600();
    ProtocolChecker pc(geo(), tm, 1);
    pc.onCommand(ev(DramCmd::Activate, 0, 0, 1, 0));
    pc.onCommand(ev(DramCmd::Activate, 0, 1, 1, tm.tRRD - 1));
    EXPECT_EQ(pc.violations(Violation::TimingTRRD), 1u);
    EXPECT_EQ(pc.violations(), 1u) << pc.lastViolation();
}

TEST(ProtocolCheck, ReadToClosedBankFlags)
{
    DramTiming tm = ddr3_1600();
    ProtocolChecker pc(geo(), tm, 1);
    pc.onCommand(ev(DramCmd::Read, 0, 3, 0, 100));
    EXPECT_EQ(pc.violations(Violation::ColToClosedBank), 1u);
    EXPECT_EQ(pc.violations(), 1u) << pc.lastViolation();
    EXPECT_NE(pc.lastViolation().find("closed bank"), std::string::npos);
}

TEST(ProtocolCheck, ReadToWrongRowFlags)
{
    DramTiming tm = ddr3_1600();
    ProtocolChecker pc(geo(), tm, 1);
    pc.onCommand(ev(DramCmd::Activate, 0, 0, 3, 0));
    pc.onCommand(ev(DramCmd::Read, 0, 0, 4, tm.tRCD));
    EXPECT_EQ(pc.violations(Violation::ColWrongRow), 1u);
    EXPECT_EQ(pc.violations(), 1u) << pc.lastViolation();
}

TEST(ProtocolCheck, EarlyReadAfterActivateFlagsTrcd)
{
    DramTiming tm = ddr3_1600();
    ProtocolChecker pc(geo(), tm, 1);
    pc.onCommand(ev(DramCmd::Activate, 0, 0, 1, 0));
    pc.onCommand(ev(DramCmd::Read, 0, 0, 1, tm.tRCD - 1));
    EXPECT_EQ(pc.violations(Violation::TimingTRCD), 1u);
    EXPECT_EQ(pc.violations(), 1u) << pc.lastViolation();
}

TEST(ProtocolCheck, TightColumnPairFlagsTccd)
{
    DramTiming tm = ddr3_1600();
    ProtocolChecker pc(geo(), tm, 1);
    pc.onCommand(ev(DramCmd::Activate, 0, 0, 1, 0));
    Cycle rd1 = tm.tRCD;
    pc.onCommand(ev(DramCmd::Read, 0, 0, 1, rd1));
    pc.onCommand(ev(DramCmd::Read, 0, 0, 1, rd1 + tm.tCCD - 1));
    EXPECT_EQ(pc.violations(Violation::TimingTCCD), 1u);
    // The too-early second read also overlaps the first data burst.
    EXPECT_EQ(pc.violations(Violation::DataBusConflict), 1u);
    EXPECT_EQ(pc.violations(), 2u) << pc.lastViolation();
}

TEST(ProtocolCheck, WriteToReadTurnaroundFlagsTwtr)
{
    DramTiming tm = ddr3_1600();
    ProtocolChecker pc(geo(), tm, 1);
    pc.onCommand(ev(DramCmd::Activate, 0, 0, 1, 0));
    Cycle wr = tm.tRCD;
    pc.onCommand(ev(DramCmd::Write, 0, 0, 1, wr));
    Cycle data_end = wr + tm.tCWL + tm.tBURST;
    // Past the bus conflict window and tCCD, short of tWTR.
    Cycle rd = data_end + tm.tRTRS - tm.tCL + tm.tBURST;
    rd = std::max(rd, wr + tm.tCCD);
    ASSERT_LT(rd, data_end + tm.tWTR);
    pc.onCommand(ev(DramCmd::Read, 0, 0, 1, rd));
    EXPECT_EQ(pc.violations(Violation::TimingTWTR), 1u);
    EXPECT_EQ(pc.violations(), 1u) << pc.lastViolation();
}

TEST(ProtocolCheck, EarlyPrechargeAfterWriteFlagsTwr)
{
    DramTiming tm = ddr3_1600();
    ProtocolChecker pc(geo(), tm, 1);
    pc.onCommand(ev(DramCmd::Activate, 0, 0, 1, 0));
    Cycle wr = tm.tRCD;
    pc.onCommand(ev(DramCmd::Write, 0, 0, 1, wr));
    Cycle ready = wr + tm.tCWL + tm.tBURST + tm.tWR;
    Cycle pre = std::max(tm.tRAS, ready - 1);
    ASSERT_LT(pre, ready);
    pc.onCommand(ev(DramCmd::Precharge, 0, 0, 0, pre));
    EXPECT_EQ(pc.violations(Violation::TimingTWR), 1u);
    EXPECT_EQ(pc.violations(), 1u) << pc.lastViolation();
}

TEST(ProtocolCheck, EarlyPrechargeAfterReadFlagsTrtp)
{
    DramTiming tm = ddr3_1600();
    ProtocolChecker pc(geo(), tm, 1);
    pc.onCommand(ev(DramCmd::Activate, 0, 0, 1, 0));
    Cycle rd = tm.tRAS - 2; // tRCD long since satisfied.
    ASSERT_GE(rd, tm.tRCD);
    pc.onCommand(ev(DramCmd::Read, 0, 0, 1, rd));
    Cycle pre = std::max(tm.tRAS, rd + tm.tRTP - 1);
    ASSERT_LT(pre, rd + tm.tRTP);
    pc.onCommand(ev(DramCmd::Precharge, 0, 0, 0, pre));
    EXPECT_EQ(pc.violations(Violation::TimingTRTP), 1u);
    EXPECT_EQ(pc.violations(), 1u) << pc.lastViolation();
}

TEST(ProtocolCheck, PrechargeToClosedBankFlags)
{
    DramTiming tm = ddr3_1600();
    ProtocolChecker pc(geo(), tm, 1);
    pc.onCommand(ev(DramCmd::Precharge, 0, 0, 0, 50));
    EXPECT_EQ(pc.violations(Violation::PreToClosedBank), 1u);
    EXPECT_EQ(pc.violations(), 1u) << pc.lastViolation();
}

TEST(ProtocolCheck, ActivateToOpenBankFlags)
{
    DramTiming tm = ddr3_1600();
    ProtocolChecker pc(geo(), tm, 1);
    pc.onCommand(ev(DramCmd::Activate, 0, 0, 1, 0));
    pc.onCommand(ev(DramCmd::Activate, 0, 0, 2, tm.tRC));
    EXPECT_EQ(pc.violations(Violation::ActToOpenBank), 1u);
    EXPECT_EQ(pc.violations(), 1u) << pc.lastViolation();
}

TEST(ProtocolCheck, CommandDuringRefreshFlagsTrfc)
{
    DramTiming tm = ddr3_1600();
    ProtocolChecker pc(geo(), tm, 1);
    pc.onCommand(ev(DramCmd::Refresh, 0, 0, 0, 0));
    pc.onCommand(ev(DramCmd::Activate, 0, 0, 1, tm.tRFC - 1));
    EXPECT_EQ(pc.violations(Violation::TimingTRFC), 1u);
    EXPECT_EQ(pc.violations(), 1u) << pc.lastViolation();
    // At exactly tRFC the rank is available again.
    pc.onCommand(ev(DramCmd::Activate, 0, 1, 1, tm.tRFC + tm.tRRD));
    EXPECT_EQ(pc.violations(), 1u) << pc.lastViolation();
}

TEST(ProtocolCheck, RefreshOverOpenBankFlags)
{
    DramTiming tm = ddr3_1600();
    ProtocolChecker pc(geo(), tm, 1);
    pc.onCommand(ev(DramCmd::Activate, 0, 2, 1, 0));
    pc.onCommand(ev(DramCmd::Refresh, 0, 0, 0, tm.tRC));
    EXPECT_EQ(pc.violations(Violation::RefreshOpenBank), 1u);
    EXPECT_EQ(pc.violations(), 1u) << pc.lastViolation();
}

TEST(ProtocolCheck, LateRefreshFlagsCadence)
{
    DramTiming tm = ddr3_1600();
    ProtocolChecker pc(geo(), tm, 1);
    Cycle bound =
        static_cast<Cycle>(pc.params().refreshPostponeMax + 1) *
        tm.tREFI;
    pc.onCommand(ev(DramCmd::Refresh, 0, 0, 0, 0));
    pc.onCommand(ev(DramCmd::Refresh, 0, 0, 0, bound + 1));
    EXPECT_EQ(pc.violations(Violation::RefreshLate), 1u);
    EXPECT_EQ(pc.violations(), 1u) << pc.lastViolation();
}

TEST(ProtocolCheck, FinalizeFlagsUnrefreshedRanks)
{
    DramTiming tm = ddr3_1600();
    ProtocolChecker pc(geo(), tm, 1);
    Cycle bound =
        static_cast<Cycle>(pc.params().refreshPostponeMax + 1) *
        tm.tREFI;
    pc.finalize(bound); // right at the bound: still fine.
    EXPECT_EQ(pc.violations(), 0u) << pc.lastViolation();
    pc.finalize(bound + 1); // both ranks overdue.
    EXPECT_EQ(pc.violations(Violation::RefreshLate), 2u);
}

TEST(ProtocolCheck, CommandDuringPerBankRefreshFlagsTrfcPb)
{
    DramTiming tm = ddr3_1600();
    ProtocolChecker pc(geo(), tm, 1);
    pc.onCommand(ev(DramCmd::RefreshBank, 0, 0, 0, 0));
    // The refreshing bank accepts nothing inside tRFCpb...
    pc.onCommand(ev(DramCmd::Activate, 0, 0, 1, tm.tRFCpb - 1));
    EXPECT_EQ(pc.violations(Violation::TimingTRFCpb), 1u);
    EXPECT_EQ(pc.violations(), 1u) << pc.lastViolation();
    // ...but a neighbouring bank of the same rank is unaffected.
    pc.onCommand(ev(DramCmd::Activate, 0, 1, 1,
                    tm.tRFCpb - 1 + tm.tRRD));
    EXPECT_EQ(pc.violations(), 1u) << pc.lastViolation();
}

TEST(ProtocolCheck, AllBankRefreshDuringPerBankRefreshFlagsTrfcPb)
{
    DramTiming tm = ddr3_1600();
    ProtocolChecker pc(geo(), tm, 1);
    pc.onCommand(ev(DramCmd::RefreshBank, 0, 3, 0, 0));
    pc.onCommand(ev(DramCmd::Refresh, 0, 0, 0, tm.tRFCpb - 1));
    EXPECT_EQ(pc.violations(Violation::TimingTRFCpb), 1u);
    EXPECT_EQ(pc.violations(), 1u) << pc.lastViolation();
}

TEST(ProtocolCheck, PerBankRefreshToOpenBankFlags)
{
    DramTiming tm = ddr3_1600();
    ProtocolChecker pc(geo(), tm, 1);
    pc.onCommand(ev(DramCmd::Activate, 0, 2, 1, 0));
    pc.onCommand(ev(DramCmd::RefreshBank, 0, 2, 0, tm.tRC));
    EXPECT_EQ(pc.violations(Violation::RefreshPbOpenBank), 1u);
    EXPECT_EQ(pc.violations(), 1u) << pc.lastViolation();
}

TEST(ProtocolCheck, LatePerBankRefreshFlagsCadence)
{
    DramTiming tm = ddr3_1600();
    ProtocolChecker pc(geo(), tm, 1);
    Cycle bound =
        static_cast<Cycle>(pc.params().refreshPostponeMax + 1) *
        tm.tREFI;
    pc.onCommand(ev(DramCmd::RefreshBank, 0, 0, 0, 0));
    // Right at the bound: fine; one past it: the bank starved.
    pc.onCommand(ev(DramCmd::RefreshBank, 0, 0, 0, bound));
    EXPECT_EQ(pc.violations(), 0u) << pc.lastViolation();
    pc.onCommand(ev(DramCmd::RefreshBank, 0, 0, 0, 2 * bound + 1));
    EXPECT_EQ(pc.violations(Violation::RefreshPbLate), 1u);
    EXPECT_EQ(pc.violations(), 1u) << pc.lastViolation();
}

TEST(ProtocolCheck, AllBankRefreshResetsPerBankCadence)
{
    DramTiming tm = ddr3_1600();
    ProtocolChecker pc(geo(), tm, 1);
    Cycle bound =
        static_cast<Cycle>(pc.params().refreshPostponeMax + 1) *
        tm.tREFI;
    pc.onCommand(ev(DramCmd::RefreshBank, 0, 0, 0, 0));
    // An all-bank REF refreshes every bank, restarting their clocks.
    Cycle ref = bound - 10;
    pc.onCommand(ev(DramCmd::Refresh, 0, 0, 0, ref));
    pc.onCommand(ev(DramCmd::RefreshBank, 0, 0, 0, ref + bound));
    EXPECT_EQ(pc.violations(), 0u) << pc.lastViolation();
}

TEST(ProtocolCheck, ForeignPerBankRefreshFlags)
{
    DramTiming tm = ddr3_1600();
    ProtocolChecker pc(geo(), tm, 2);
    pc.onColorSet(0, {0, 1});
    // Engine-issued refreshes carry no thread and are always fine.
    pc.onCommand(ev(DramCmd::RefreshBank, 1, 2, 0, 0));
    // Thread 0 refreshing its own bank (color 1) is fine too.
    pc.onCommand(ev(DramCmd::RefreshBank, 0, 1, 0, tm.tRRD, 0));
    EXPECT_EQ(pc.violations(), 0u) << pc.lastViolation();
    // rank 1 bank 3 = color 11 — never in thread 0's partition.
    pc.onCommand(ev(DramCmd::RefreshBank, 1, 3, 0, 100, 0));
    EXPECT_EQ(pc.violations(Violation::RefreshPbForeign), 1u);
    EXPECT_EQ(pc.violations(), 1u) << pc.lastViolation();
}

TEST(ProtocolCheck, FinalizeAcceptsPerBankCoverage)
{
    DramTiming tm = ddr3_1600();
    DramGeometry g = geo();
    ProtocolChecker pc(g, tm, 1);
    Cycle bound =
        static_cast<Cycle>(pc.params().refreshPostponeMax + 1) *
        tm.tREFI;
    // Refresh every bank of both ranks per-bank style, no REF at all;
    // place them late enough that the rank-level REF clock (never
    // advanced here) is past its bound at finalize time.
    Cycle now = bound - 16;
    for (unsigned r = 0; r < g.ranksPerChannel; ++r)
        for (unsigned b = 0; b < g.banksPerRank; ++b)
            pc.onCommand(ev(DramCmd::RefreshBank, r, b, 0, now++));
    EXPECT_EQ(pc.violations(), 0u) << pc.lastViolation();
    pc.finalize(bound + 1);
    EXPECT_EQ(pc.violations(), 0u) << pc.lastViolation();
}

TEST(ProtocolCheck, FinalizeFlagsPartialPerBankCoverage)
{
    DramTiming tm = ddr3_1600();
    DramGeometry g = geo();
    ProtocolChecker pc(g, tm, 1);
    Cycle bound =
        static_cast<Cycle>(pc.params().refreshPostponeMax + 1) *
        tm.tREFI;
    // Rank 0 covers all its banks; rank 1 skips bank 7.
    Cycle now = bound - 20;
    for (unsigned r = 0; r < g.ranksPerChannel; ++r)
        for (unsigned b = 0; b < g.banksPerRank - (r == 1 ? 1 : 0); ++b)
            pc.onCommand(ev(DramCmd::RefreshBank, r, b, 0, now++));
    pc.finalize(bound + 1);
    EXPECT_EQ(pc.violations(Violation::RefreshLate), 1u);
    EXPECT_EQ(pc.violations(), 1u) << pc.lastViolation();
}

TEST(ProtocolCheck, FinalizeSkipsChecksWhenRefreshNotExpected)
{
    DramTiming tm = ddr3_1600();
    ProtocolCheckerParams params;
    params.expectRefresh = false; // refresh mode "none".
    ProtocolChecker pc(geo(), tm, 1, params);
    Cycle bound = static_cast<Cycle>(params.refreshPostponeMax + 1) *
        tm.tREFI;
    pc.finalize(10 * bound);
    EXPECT_EQ(pc.violations(), 0u) << pc.lastViolation();
}

TEST(ProtocolCheck, RankSwitchWithoutTrtrsFlagsDataBus)
{
    DramTiming tm = ddr3_1600();
    ProtocolChecker pc(geo(), tm, 2);
    pc.onCommand(ev(DramCmd::Activate, 0, 0, 1, 0));
    pc.onCommand(ev(DramCmd::Activate, 1, 0, 1, 0));
    Cycle rd1 = tm.tRCD;
    pc.onCommand(ev(DramCmd::Read, 0, 0, 1, rd1));
    // Back to back on the bus, but the rank switch needs tRTRS.
    pc.onCommand(ev(DramCmd::Read, 1, 0, 1, rd1 + tm.tBURST));
    EXPECT_EQ(pc.violations(Violation::DataBusConflict), 1u);
    EXPECT_EQ(pc.violations(), 1u) << pc.lastViolation();
}

TEST(ProtocolCheck, AutoPrechargeClosesBankInShadow)
{
    DramTiming tm = ddr3_1600();
    ProtocolChecker pc(geo(), tm, 1);
    pc.onCommand(ev(DramCmd::Activate, 0, 0, 7, 0));
    Cycle rd = tm.tRCD;
    pc.onCommand(ev(DramCmd::ReadAp, 0, 0, 7, rd));
    EXPECT_EQ(pc.violations(), 0u) << pc.lastViolation();
    // The bank auto-precharged: a follow-up read must be flagged.
    pc.onCommand(ev(DramCmd::Read, 0, 0, 7, rd + tm.tCCD + tm.tBURST));
    EXPECT_EQ(pc.violations(Violation::ColToClosedBank), 1u);
}

TEST(ProtocolCheck, FailFastPanicsOnFirstViolation)
{
    DramTiming tm = ddr3_1600();
    ProtocolCheckerParams params;
    params.failFast = true;
    ProtocolChecker pc(geo(), tm, 1, params);
    EXPECT_DEATH(pc.onCommand(ev(DramCmd::Read, 0, 0, 0, 100)),
                 "col_to_closed_bank");
}

// ---------------------------------------------------------------------
// Partition containment.
// ---------------------------------------------------------------------

TEST(ProtocolCheck, AccessOutsidePartitionFlags)
{
    DramTiming tm = ddr3_1600();
    ProtocolChecker pc(geo(), tm, 2);
    pc.onColorSet(0, {0, 1});
    // rank 1 bank 2 = color 10 — never assigned to thread 0.
    pc.onCommand(ev(DramCmd::Activate, 1, 2, 1, 0, 0));
    pc.onCommand(ev(DramCmd::Read, 1, 2, 1, tm.tRCD, 0));
    EXPECT_EQ(pc.violations(Violation::PartitionAccess), 1u);
    EXPECT_EQ(pc.violations(), 1u) << pc.lastViolation();
}

TEST(ProtocolCheck, AccessInsidePartitionIsClean)
{
    DramTiming tm = ddr3_1600();
    ProtocolChecker pc(geo(), tm, 2);
    pc.onColorSet(0, {2, 3});
    pc.onCommand(ev(DramCmd::Activate, 0, 2, 1, 0, 0));
    pc.onCommand(ev(DramCmd::Read, 0, 2, 1, tm.tRCD, 0));
    EXPECT_EQ(pc.violations(), 0u) << pc.lastViolation();
    EXPECT_EQ(pc.statStaleAccesses.value(), 0u);
}

TEST(ProtocolCheck, StaleAccessAfterRepartitionIsNotViolation)
{
    DramTiming tm = ddr3_1600();
    ProtocolChecker pc(geo(), tm, 2);
    pc.onColorSet(0, {2});
    pc.onCommand(ev(DramCmd::Activate, 0, 2, 1, 0, 0));
    pc.onCommand(ev(DramCmd::Read, 0, 2, 1, tm.tRCD, 0));
    // Repartition away; the page left behind may still be touched.
    pc.onColorSet(0, {3});
    pc.onCommand(ev(DramCmd::Read, 0, 2, 1,
                    tm.tRCD + tm.tCCD + tm.tBURST, 0));
    EXPECT_EQ(pc.violations(), 0u) << pc.lastViolation();
    EXPECT_EQ(pc.statStaleAccesses.value(), 1u);
}

TEST(ProtocolCheck, UnpartitionedThreadsAreNeverFlagged)
{
    DramTiming tm = ddr3_1600();
    ProtocolChecker pc(geo(), tm, 2);
    // No onColorSet at all: any access anywhere is fine.
    pc.onCommand(ev(DramCmd::Activate, 1, 7, 1, 0, 1));
    pc.onCommand(ev(DramCmd::Read, 1, 7, 1, tm.tRCD, 1));
    EXPECT_EQ(pc.violations(), 0u) << pc.lastViolation();
}

TEST(ProtocolCheck, AllocationOutsideColorSetFlags)
{
    DramTiming tm = ddr3_1600();
    ProtocolChecker pc(geo(), tm, 2);
    pc.onColorSet(0, {1, 2});
    pc.onFrameAllocated(0, 2); // fine.
    EXPECT_EQ(pc.violations(), 0u) << pc.lastViolation();
    pc.onFrameAllocated(0, 7); // outside the set.
    EXPECT_EQ(pc.violations(Violation::PartitionAlloc), 1u);
    EXPECT_EQ(pc.violations(), 1u) << pc.lastViolation();
    EXPECT_EQ(pc.statAllocations.value(), 2u);
}

// ---------------------------------------------------------------------
// Subarray rules (SALP/MASA).
// ---------------------------------------------------------------------

TEST(ProtocolCheck, MasaCleanSequenceIsViolationFree)
{
    DramTiming tm = ddr3_1600();
    ProtocolCheckerParams params;
    params.salp = SalpMode::Masa;
    ProtocolChecker pc(geo(), tm, 1, params);

    // Two subarrays open at once; column commands follow the
    // designated latch, relinked by SA_SEL after tSA.
    pc.onCommand(ev(DramCmd::Activate, 0, 0, 0, 0));
    pc.onCommand(ev(DramCmd::Activate, 0, 0, 1, tm.tRRD));
    Cycle rd1 = tm.tRRD + tm.tRCD;
    pc.onCommand(ev(DramCmd::Read, 0, 0, 1, rd1));
    Cycle sel = rd1 + 1;
    pc.onCommand(ev(DramCmd::SaSel, 0, 0, 0, sel));
    Cycle rd2 = std::max({sel + tm.tSA, rd1 + tm.tCCD,
                          rd1 + tm.tBURST});
    pc.onCommand(ev(DramCmd::Read, 0, 0, 0, rd2));
    EXPECT_EQ(pc.violations(), 0u) << pc.lastViolation();
}

TEST(ProtocolCheck, EarlySaSelRelinkFlagsTsa)
{
    DramTiming tm = ddr3_1600();
    ProtocolCheckerParams params;
    params.salp = SalpMode::Masa;
    ProtocolChecker pc(geo(), tm, 1, params);

    pc.onCommand(ev(DramCmd::Activate, 0, 0, 0, 0));
    pc.onCommand(ev(DramCmd::Activate, 0, 0, 1, tm.tRRD));
    Cycle sel = tm.tRRD + 1;
    pc.onCommand(ev(DramCmd::SaSel, 0, 0, 0, sel));
    // A second relink before the first one's tSA has elapsed.
    pc.onCommand(ev(DramCmd::SaSel, 0, 0, 1, sel + tm.tSA - 1));
    EXPECT_EQ(pc.violations(Violation::TimingTSA), 1u);
    EXPECT_EQ(pc.violations(), 1u) << pc.lastViolation();
}

TEST(ProtocolCheck, Salp1ActWhileAnotherSubarrayOpenFlags)
{
    DramTiming tm = ddr3_1600();
    ProtocolCheckerParams params;
    params.salp = SalpMode::Salp1;
    ProtocolChecker pc(geo(), tm, 1, params);

    pc.onCommand(ev(DramCmd::Activate, 0, 0, 0, 0));
    // SALP-1/2 keep one open row per bank: activating subarray 1
    // while subarray 0 still holds its row breaks the mode invariant.
    pc.onCommand(ev(DramCmd::Activate, 0, 0, 1, tm.tRRD));
    EXPECT_EQ(pc.violations(Violation::SubarrayActIllegal), 1u);
    EXPECT_EQ(pc.violations(), 1u) << pc.lastViolation();
}

TEST(ProtocolCheck, ColumnToNonDesignatedSubarrayFlags)
{
    DramTiming tm = ddr3_1600();
    ProtocolCheckerParams params;
    params.salp = SalpMode::Masa;
    ProtocolChecker pc(geo(), tm, 1, params);

    pc.onCommand(ev(DramCmd::Activate, 0, 0, 0, 0));
    pc.onCommand(ev(DramCmd::Activate, 0, 0, 1, tm.tRRD));
    // The second ACT designated subarray 1; a read to subarray 0's
    // open row without an SA_SEL relink is illegal.
    pc.onCommand(ev(DramCmd::Read, 0, 0, 0, tm.tRRD + tm.tRCD));
    EXPECT_EQ(pc.violations(Violation::SubarrayColIllegal), 1u);
    EXPECT_EQ(pc.violations(), 1u) << pc.lastViolation();
}

TEST(ProtocolCheck, AccessOutsideSubarrayColorsFlags)
{
    DramTiming tm = ddr3_1600();
    ProtocolCheckerParams params;
    params.salp = SalpMode::Masa;
    params.subarrayColoring = true;
    ProtocolChecker pc(geo(), tm, 2, params);

    // Thread 0 owns exactly one subarray color: bank 0, subarray 0.
    pc.onColorSet(0, {0});

    // A foreign subarray of a partially-owned bank is the finer
    // breach class...
    pc.onCommand(ev(DramCmd::Activate, 0, 0, 1, 0, 0));
    pc.onCommand(ev(DramCmd::Read, 0, 0, 1, tm.tRCD, 0));
    EXPECT_EQ(pc.violations(Violation::PartitionSubarray), 1u);
    EXPECT_EQ(pc.violations(), 1u) << pc.lastViolation();

    // ...while a fully-foreign bank still reports the classic one.
    pc.onCommand(ev(DramCmd::Activate, 0, 1, 0, tm.tRRD, 0));
    pc.onCommand(ev(DramCmd::Read, 0, 1, 0,
                    tm.tRRD + tm.tRCD + tm.tBURST, 0));
    EXPECT_EQ(pc.violations(Violation::PartitionAccess), 1u);
    EXPECT_EQ(pc.violations(), 2u) << pc.lastViolation();
}

// ---------------------------------------------------------------------
// Layer 2: cross-validation against the real DramChannel.
// ---------------------------------------------------------------------

/** Minimal recording observer for hook-wiring tests. */
struct Recorder : CommandObserver
{
    std::vector<CmdEvent> events;
    void onCommand(const CmdEvent &e) override { events.push_back(e); }
};

TEST(ChannelObserver, EveryIssuedCommandIsReported)
{
    DramGeometry g = geo();
    DramTiming tm = ddr3_1600();
    DramChannel ch(g, tm, 0);
    Recorder rec;
    ch.setObserver(&rec);

    ch.issue(DramCmd::Activate, 1, 2, 5, 0, 1);
    ch.issue(DramCmd::Read, 1, 2, 5, tm.tRCD, 1);
    ch.issue(DramCmd::Refresh, 0, 0, 0, tm.tRCD + 1);

    ASSERT_EQ(rec.events.size(), 3u);
    EXPECT_EQ(rec.events[0].cmd, DramCmd::Activate);
    EXPECT_EQ(rec.events[0].channel, 0u);
    EXPECT_EQ(rec.events[0].rank, 1u);
    EXPECT_EQ(rec.events[0].bank, 2u);
    EXPECT_EQ(rec.events[0].row, 5u);
    EXPECT_EQ(rec.events[0].cycle, 0u);
    EXPECT_EQ(rec.events[0].tid, 1);
    EXPECT_EQ(rec.events[1].cmd, DramCmd::Read);
    EXPECT_EQ(rec.events[1].cycle, tm.tRCD);
    // Callers that don't pass a thread id report kInvalidThread.
    EXPECT_EQ(rec.events[2].tid, kInvalidThread);
}

/** Rows currently open in bank (@p r, @p b). */
std::vector<std::uint64_t>
openRows(const DramChannel &ch, unsigned r, unsigned b)
{
    std::vector<std::uint64_t> rows;
    for (const SubarrayState &s : ch.bank(r, b).subs)
        if (s.open)
            rows.push_back(s.row);
    return rows;
}

/**
 * Random legal-command streams through a real channel must be clean
 * under the checker: DramChannel::canIssue() and the checker are two
 * independent encodings of the same JEDEC rules. One case per SALP
 * mode (eight subarrays per bank); under MASA the mix includes SA_SEL.
 */
class ChannelObserverFuzz : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ChannelObserverFuzz, RandomLegalStreamIsViolationFree)
{
    const SalpMode mode = salpModeByName(GetParam());
    DramGeometry g = geo();
    g.subarraysPerBank = 8;
    DramTiming tm = ddr3_1600();
    DramChannel ch(g, tm, 0, mode);
    ProtocolCheckerParams params;
    params.salp = mode;
    ProtocolChecker pc(g, tm, 1, params);
    ch.setObserver(&pc);
    Rng rng(99);
    const std::uint64_t kinds = mode == SalpMode::Masa ? 7 : 6;

    // Each rank's all-bank deadline, staggered as RefreshEngine
    // staggers them.
    std::vector<Cycle> ref_due(g.ranksPerChannel);
    for (unsigned r = 0; r < g.ranksPerChannel; ++r)
        ref_due[r] = tm.tREFI * (r + 1) / g.ranksPerChannel;

    Cycle last = 0;
    for (Cycle now = 0; now < 40000; ++now) {
        bool used = false;
        for (unsigned r = 0; r < g.ranksPerChannel && !used; ++r) {
            if (now >= ref_due[r] &&
                ch.canIssue(DramCmd::Refresh, r, 0, 0, now)) {
                ch.issue(DramCmd::Refresh, r, 0, 0, now);
                ref_due[r] += tm.tREFI;
                used = true;
            }
        }
        if (used) {
            last = now;
            continue;
        }
        for (int attempt = 0; attempt < 4 && !used; ++attempt) {
            auto r = static_cast<unsigned>(
                rng.nextBelow(g.ranksPerChannel));
            auto b = static_cast<unsigned>(
                rng.nextBelow(g.banksPerRank));
            std::uint64_t row = rng.nextBelow(g.rowsPerBank);
            DramCmd cmd;
            switch (rng.nextBelow(kinds)) {
              case 0: cmd = DramCmd::Activate; break;
              case 1: cmd = DramCmd::Precharge; break;
              case 2: cmd = DramCmd::Read; break;
              case 3: cmd = DramCmd::Write; break;
              case 4: cmd = DramCmd::ReadAp; break;
              case 5: cmd = DramCmd::WriteAp; break;
              default: cmd = DramCmd::SaSel; break;
            }
            if (cmd != DramCmd::Activate) {
                // Every other command targets an open row. (The
                // channel tolerates PRE to a closed bank as a no-op;
                // real controllers never issue it and the checker
                // flags it, so the fuzzer doesn't either.)
                std::vector<std::uint64_t> rows = openRows(ch, r, b);
                if (rows.empty())
                    continue;
                row = rows[rng.nextBelow(rows.size())];
            }
            if (!ch.canIssue(cmd, r, b, row, now))
                continue;
            ch.issue(cmd, r, b, row, now);
            used = true;
            last = now;
        }
    }
    EXPECT_GT(pc.commandsChecked(), 1000u)
        << "fuzz barely exercised the channel";
    if (mode == SalpMode::Masa) {
        EXPECT_GT(ch.statSaSels.value(), 0u);
    }
    EXPECT_EQ(pc.violations(), 0u) << pc.lastViolation();
    pc.finalize(last);
    EXPECT_EQ(pc.violations(), 0u) << pc.lastViolation();
}

INSTANTIATE_TEST_SUITE_P(SalpModes, ChannelObserverFuzz,
                         ::testing::Values("none", "salp1", "salp2",
                                           "masa"));

// ---------------------------------------------------------------------
// Layer 3: end-to-end scheme runs must be violation-free.
// ---------------------------------------------------------------------

std::unique_ptr<SyntheticSource>
makeSource(const std::string &name, double mpki, unsigned streams,
           double seq_run, double random_frac, std::uint64_t seed)
{
    SyntheticParams sp;
    sp.name = name;
    sp.seed = seed;
    sp.phases[0].mpki = mpki;
    sp.phases[0].streams = streams;
    sp.phases[0].seqRunLines = seq_run;
    sp.phases[0].randomFrac = random_frac;
    sp.phases[0].footprintPages = 4096;
    return std::make_unique<SyntheticSource>(sp);
}

TEST(ProtocolCheckSystem, PaperSchemesRunViolationFree)
{
    for (RefreshMode mode : {RefreshMode::AllBank, RefreshMode::PerBank})
    for (const char *name :
         {"FR-FCFS", "UBP", "DBP", "TCM", "DBP-TCM", "MCP"}) {
        SystemParams p;
        p.numCores = 4;
        p.geometry.rowsPerBank = 4096;
        p.profileIntervalCpu = 60'000;
        p.protocolCheck = true;
        p.controller.refresh.mode = mode;
        p = applyScheme(p, schemeByName(name));

        auto s0 = makeSource("stream", 25, 1, 128, 0.0, 11);
        auto s1 = makeSource("random", 20, 6, 2, 0.6, 12);
        auto s2 = makeSource("mixed", 10, 3, 16, 0.2, 13);
        auto s3 = makeSource("light", 2, 2, 32, 0.1, 14);
        std::vector<TraceSource *> raw = {s0.get(), s1.get(), s2.get(),
                                          s3.get()};
        System sys(p, raw);
        sys.runAndMeasure(60'000, 200'000);

        ProtocolChecker *pc = sys.protocolChecker();
        ASSERT_NE(pc, nullptr) << name;
        pc->finalize(sys.memCycle());
        std::ostringstream rep;
        pc->report(rep);
        EXPECT_EQ(pc->violations(), 0u) << name << ": " << rep.str();
        EXPECT_GT(pc->commandsChecked(), 1000u) << name;
        if (std::string(name) == "DBP" || std::string(name) == "UBP") {
            EXPECT_GT(pc->statAllocations.value(), 0u) << name;
        }
    }
}

TEST(ProtocolCheckExperiment, AllStandardSchemesPassFailFast)
{
    // Three legs: the default all-bank engine and the refresh-aware
    // all-bank and per-bank (DARP-style) engines, so every scheme runs
    // fail-fast clean under both refresh granularities.
    struct Leg { RefreshMode mode; bool aware; };
    for (Leg leg : {Leg{RefreshMode::AllBank, false},
                    Leg{RefreshMode::AllBank, true},
                    Leg{RefreshMode::PerBank, true}}) {
        RunConfig rc;
        rc.base.geometry.rowsPerBank = 4096;
        rc.base.profileIntervalCpu = 60'000;
        rc.base.protocolCheck = true;
        rc.base.checkFailFast = true; // any violation panics the test.
        rc.base.controller.refresh.mode = leg.mode;
        rc.base.controller.refresh.aware = leg.aware;
        rc.warmupCpu = 60'000;
        rc.measureCpu = 150'000;

        AloneBaselineCache baselines;
        WorkloadMix mix{"check",
                        {"libquantum", "omnetpp", "gcc", "mcf"}};
        for (const Scheme &s : standardSchemes()) {
            MixResult r = runMixJob(rc, mix, s, baselines);
            EXPECT_GT(r.metrics.weightedSpeedup, 0.0)
                << s.name << " refresh=" << refreshModeName(leg.mode)
                << (leg.aware ? "+aware" : "");
        }
    }
}

} // namespace
} // namespace dbpsim
