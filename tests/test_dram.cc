/**
 * @file
 * DRAM device tests: timing presets, the bank/rank/channel FSM's
 * enforcement of every DDR constraint (tRCD, tRP, tRC, tRAS, tCCD,
 * tRRD, tFAW, tWTR, bus occupancy, refresh), and the migration-cost
 * bank blocking used by the partition manager.
 */

#include <gtest/gtest.h>

#include "dram/channel.hh"
#include "dram/energy.hh"
#include "dram/timing.hh"

namespace dbpsim {
namespace {

DramGeometry
geo()
{
    DramGeometry g;
    g.channels = 1;
    g.ranksPerChannel = 2;
    g.banksPerRank = 8;
    g.rowsPerBank = 1024;
    g.rowBytes = 8192;
    g.lineBytes = 64;
    g.pageBytes = 4096;
    return g;
}

/** A channel far from its first refresh deadline. */
DramChannel
freshChannel(const DramTiming &t)
{
    return DramChannel(geo(), t, 0);
}

class TimingPresets : public ::testing::TestWithParam<std::string>
{
};

TEST_P(TimingPresets, Validate)
{
    DramTiming t = dramTimingByName(GetParam());
    EXPECT_TRUE(t.validate().empty()) << t.validate();
    EXPECT_GE(t.tRC, t.tRAS + t.tRP);
}

INSTANTIATE_TEST_SUITE_P(All, TimingPresets,
                         ::testing::Values("ddr3-1600", "ddr3-1333",
                                           "ddr3-1066"));

TEST(Timing, InvalidRelationsDetected)
{
    DramTiming t = ddr3_1600();
    t.tRC = 1; // dbplint:allow(cycle-literal) reason=deliberately violates tRC >= tRAS + tRP to prove validate() rejects it
    EXPECT_FALSE(t.validate().empty());

    t = ddr3_1600();
    t.tREFI = t.tRFC; // refresh cannot keep up.
    EXPECT_FALSE(t.validate().empty());
}

TEST(Timing, InvalidRefreshRelationsDetected)
{
    DramTiming t = ddr3_1600();
    t.tRFC = 0; // refresh scheduled (tREFI > 0) but takes no time.
    EXPECT_FALSE(t.validate().empty());

    t = ddr3_1600();
    t.tRFCpb = t.tRFC + 1; // per-bank refresh slower than all-bank.
    EXPECT_FALSE(t.validate().empty());

    t = ddr3_1600();
    t.tRFCpb = 0; // all-bank refresh exists but per-bank is free.
    EXPECT_FALSE(t.validate().empty());
}

TEST(Timing, RefreshPresetValues)
{
    DramTiming t1600 = dramTimingByName("ddr3-1600");
    EXPECT_EQ(t1600.tREFI, 6240u);
    EXPECT_EQ(t1600.tRFC, 128u);
    EXPECT_EQ(t1600.tRFCpb, 64u);

    // 7.8 us / 1.5 ns and 160 ns / 1.5 ns for DDR3-1333.
    DramTiming t1333 = dramTimingByName("ddr3-1333");
    EXPECT_EQ(t1333.tREFI, 5200u);
    EXPECT_EQ(t1333.tRFC, 107u);
    EXPECT_EQ(t1333.tRFCpb, 54u);

    DramTiming t1066 = dramTimingByName("ddr3-1066");
    EXPECT_EQ(t1066.tREFI, 4160u);
    EXPECT_EQ(t1066.tRFC, 86u);
    EXPECT_EQ(t1066.tRFCpb, 43u);
}

TEST(Channel, ActivateThenReadHonorsTrcd)
{
    DramTiming t = ddr3_1600();
    DramChannel ch = freshChannel(t);

    ASSERT_TRUE(ch.canIssue(DramCmd::Activate, 0, 0, 5, 10));
    ch.issue(DramCmd::Activate, 0, 0, 5, 10);

    // Reads illegal until tRCD elapses.
    EXPECT_FALSE(ch.canIssue(DramCmd::Read, 0, 0, 5, 10));
    EXPECT_FALSE(ch.canIssue(DramCmd::Read, 0, 0, 5, 10 + t.tRCD - 1));
    EXPECT_TRUE(ch.canIssue(DramCmd::Read, 0, 0, 5, 10 + t.tRCD));

    // Wrong row is never readable.
    EXPECT_FALSE(ch.canIssue(DramCmd::Read, 0, 0, 6, 10 + t.tRCD));
}

TEST(Channel, ReadReturnsDataAfterClPlusBurst)
{
    DramTiming t = ddr3_1600();
    DramChannel ch = freshChannel(t);
    ch.issue(DramCmd::Activate, 0, 0, 5, 0);
    Cycle rd_at = t.tRCD;
    Cycle done = ch.issue(DramCmd::Read, 0, 0, 5, rd_at);
    EXPECT_EQ(done, rd_at + t.tCL + t.tBURST);
}

TEST(Channel, PrechargeHonorsTrasAndTrp)
{
    DramTiming t = ddr3_1600();
    DramChannel ch = freshChannel(t);
    ch.issue(DramCmd::Activate, 0, 0, 5, 0);

    EXPECT_FALSE(ch.canIssue(DramCmd::Precharge, 0, 0, 0, t.tRAS - 1));
    ASSERT_TRUE(ch.canIssue(DramCmd::Precharge, 0, 0, 0, t.tRAS));
    ch.issue(DramCmd::Precharge, 0, 0, 0, t.tRAS);

    // Re-activate only after tRP (and tRC from the first ACT).
    Cycle earliest = std::max(t.tRAS + t.tRP, t.tRC);
    EXPECT_FALSE(ch.canIssue(DramCmd::Activate, 0, 0, 7, earliest - 1));
    EXPECT_TRUE(ch.canIssue(DramCmd::Activate, 0, 0, 7, earliest));
}

TEST(Channel, ActivateToActivateSameBankHonorsTrc)
{
    DramTiming t = ddr3_1600();
    DramChannel ch = freshChannel(t);
    ch.issue(DramCmd::Activate, 0, 0, 5, 0);
    ch.issue(DramCmd::Precharge, 0, 0, 0, t.tRAS);
    // tRP elapsed but tRC might not have: with tRC=39 > tRAS+tRP=39,
    // equality holds for this preset; use a stretched tRC to expose.
    DramTiming t2 = t;
    t2.tRC = t.tRAS + t.tRP + 10;
    DramChannel ch2 = freshChannel(t2);
    ch2.issue(DramCmd::Activate, 0, 0, 5, 0);
    ch2.issue(DramCmd::Precharge, 0, 0, 0, t2.tRAS);
    Cycle after_rp = t2.tRAS + t2.tRP;
    EXPECT_FALSE(ch2.canIssue(DramCmd::Activate, 0, 0, 6, after_rp));
    EXPECT_TRUE(ch2.canIssue(DramCmd::Activate, 0, 0, 6, t2.tRC));
}

TEST(Channel, RrdBetweenBanksOfARank)
{
    DramTiming t = ddr3_1600();
    DramChannel ch = freshChannel(t);
    ch.issue(DramCmd::Activate, 0, 0, 5, 0);
    EXPECT_FALSE(ch.canIssue(DramCmd::Activate, 0, 1, 5, t.tRRD - 1));
    EXPECT_TRUE(ch.canIssue(DramCmd::Activate, 0, 1, 5, t.tRRD));

    // A different rank is not constrained by this rank's tRRD.
    EXPECT_TRUE(ch.canIssue(DramCmd::Activate, 1, 0, 5, 1));
}

TEST(Channel, FawLimitsFourActivatesPerRank)
{
    DramTiming t = ddr3_1600();
    DramChannel ch = freshChannel(t);

    Cycle now = 0;
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(ch.canIssue(DramCmd::Activate, 0, i, 3, now));
        ch.issue(DramCmd::Activate, 0, static_cast<unsigned>(i), 3, now);
        now += t.tRRD;
    }
    // Fifth ACT must wait until tFAW after the first.
    EXPECT_FALSE(ch.canIssue(DramCmd::Activate, 0, 4, 3, now));
    EXPECT_TRUE(ch.canIssue(DramCmd::Activate, 0, 4, 3, t.tFAW));
}

TEST(Channel, CcdBetweenColumnCommands)
{
    DramTiming t = ddr3_1600();
    DramChannel ch = freshChannel(t);
    ch.issue(DramCmd::Activate, 0, 0, 5, 0);
    ch.issue(DramCmd::Activate, 0, 1, 9, t.tRRD);

    // Past both banks' tRCD so only tCCD separates the two reads.
    Cycle rd1 = t.tRRD + t.tRCD;
    ch.issue(DramCmd::Read, 0, 0, 5, rd1);
    EXPECT_FALSE(ch.canIssue(DramCmd::Read, 0, 1, 9, rd1 + t.tCCD - 1));
    EXPECT_TRUE(ch.canIssue(DramCmd::Read, 0, 1, 9, rd1 + t.tCCD));
}

TEST(Channel, WriteToReadTurnaroundSameRank)
{
    DramTiming t = ddr3_1600();
    DramChannel ch = freshChannel(t);
    ch.issue(DramCmd::Activate, 0, 0, 5, 0);

    Cycle wr_at = t.tRCD;
    Cycle wr_done = ch.issue(DramCmd::Write, 0, 0, 5, wr_at);
    EXPECT_EQ(wr_done, wr_at + t.tCWL + t.tBURST);

    // Same-rank read blocked until tWTR after write data ends.
    EXPECT_FALSE(ch.canIssue(DramCmd::Read, 0, 0, 5,
                             wr_done + t.tWTR - 1));
    EXPECT_TRUE(ch.canIssue(DramCmd::Read, 0, 0, 5, wr_done + t.tWTR));
}

TEST(Channel, WriteRecoveryBeforePrecharge)
{
    DramTiming t = ddr3_1600();
    DramChannel ch = freshChannel(t);
    ch.issue(DramCmd::Activate, 0, 0, 5, 0);
    Cycle wr_at = std::max(t.tRCD, t.tRAS); // past tRAS too.
    Cycle wr_done = ch.issue(DramCmd::Write, 0, 0, 5, wr_at);

    EXPECT_FALSE(ch.canIssue(DramCmd::Precharge, 0, 0, 0,
                             wr_done + t.tWR - 1));
    EXPECT_TRUE(ch.canIssue(DramCmd::Precharge, 0, 0, 0,
                            wr_done + t.tWR));
}

TEST(Channel, ReadWithAutoPrechargeClosesRow)
{
    DramTiming t = ddr3_1600();
    DramChannel ch = freshChannel(t);
    ch.issue(DramCmd::Activate, 0, 0, 5, 0);
    Cycle rd_at = std::max(t.tRCD, t.tRAS);
    ch.issue(DramCmd::ReadAp, 0, 0, 5, rd_at);
    EXPECT_FALSE(ch.bank(0, 0).open());
    // Next ACT waits for tRTP + tRP after the RDA.
    EXPECT_FALSE(ch.canIssue(DramCmd::Activate, 0, 0, 6,
                             rd_at + t.tRTP + t.tRP - 1));
    EXPECT_TRUE(ch.canIssue(DramCmd::Activate, 0, 0, 6,
                            rd_at + t.tRTP + t.tRP));
}

TEST(Channel, RefreshRequiresAllBanksClosed)
{
    DramTiming t = ddr3_1600();
    DramChannel ch = freshChannel(t);
    ch.issue(DramCmd::Activate, 0, 3, 5, 0);
    EXPECT_FALSE(ch.canIssue(DramCmd::Refresh, 0, 0, 0, t.tRAS + 1));
    ch.issue(DramCmd::Precharge, 0, 3, 0, t.tRAS);
    Cycle ready = t.tRAS + t.tRP;
    EXPECT_TRUE(ch.canIssue(DramCmd::Refresh, 0, 0, 0, ready));

    ch.issue(DramCmd::Refresh, 0, 0, 0, ready);
    // The rank accepts nothing until tRFC passes.
    EXPECT_FALSE(ch.canIssue(DramCmd::Activate, 0, 0, 1,
                             ready + t.tRFC - 1));
    EXPECT_TRUE(ch.canIssue(DramCmd::Activate, 0, 0, 1, ready + t.tRFC));
}

TEST(Channel, RefreshBankBlocksOnlyTargetBank)
{
    DramTiming t = ddr3_1600();
    DramChannel ch = freshChannel(t);

    ASSERT_TRUE(ch.canIssue(DramCmd::RefreshBank, 0, 2, 0, 10));
    ch.issue(DramCmd::RefreshBank, 0, 2, 0, 10);
    EXPECT_TRUE(ch.bank(0, 2).refreshing(10 + t.tRFCpb - 1));
    EXPECT_FALSE(ch.bank(0, 2).refreshing(10 + t.tRFCpb));

    // The refreshing bank accepts nothing until tRFCpb elapses...
    EXPECT_FALSE(ch.canIssue(DramCmd::Activate, 0, 2, 1,
                             10 + t.tRFCpb - 1));
    EXPECT_TRUE(ch.canIssue(DramCmd::Activate, 0, 2, 1, 10 + t.tRFCpb));
    // ...while its neighbours keep serving immediately.
    EXPECT_TRUE(ch.canIssue(DramCmd::Activate, 0, 3, 1, 11));
    EXPECT_TRUE(ch.canIssue(DramCmd::Activate, 1, 2, 1, 11));
}

TEST(Channel, RefreshBankRequiresClosedBank)
{
    DramTiming t = ddr3_1600();
    DramChannel ch = freshChannel(t);
    ch.issue(DramCmd::Activate, 0, 2, 5, 0);
    EXPECT_FALSE(ch.canIssue(DramCmd::RefreshBank, 0, 2, 0, t.tRAS));
    ch.issue(DramCmd::Precharge, 0, 2, 0, t.tRAS);
    EXPECT_FALSE(ch.canIssue(DramCmd::RefreshBank, 0, 2, 0,
                             t.tRAS + t.tRP - 1));
    EXPECT_TRUE(ch.canIssue(DramCmd::RefreshBank, 0, 2, 0,
                            t.tRAS + t.tRP));
}

TEST(Channel, AllBankRefreshWaitsForInFlightPerBankRefresh)
{
    DramTiming t = ddr3_1600();
    DramChannel ch = freshChannel(t);
    ch.issue(DramCmd::RefreshBank, 0, 0, 0, 10);
    EXPECT_FALSE(ch.canIssue(DramCmd::Refresh, 0, 0, 0,
                             10 + t.tRFCpb - 1));
    EXPECT_TRUE(ch.canIssue(DramCmd::Refresh, 0, 0, 0, 10 + t.tRFCpb));
}

TEST(Channel, PerBankRefreshCountsSeparately)
{
    DramTiming t = ddr3_1600();
    DramChannel ch = freshChannel(t);
    ch.issue(DramCmd::RefreshBank, 0, 0, 0, 10);
    ch.issue(DramCmd::RefreshBank, 0, 1, 0, 11);
    ch.issue(DramCmd::Refresh, 1, 0, 0, 12);
    EXPECT_EQ(ch.statRefreshesPb.value(), 2u);
    EXPECT_EQ(ch.statRefreshes.value(), 1u);
}

TEST(Energy, RefreshTermCoversBothGranularities)
{
    DramTiming t = ddr3_1600();
    DramChannel all = freshChannel(t);
    all.issue(DramCmd::Refresh, 0, 0, 0, 100);
    EXPECT_GT(dramEnergy(all, 1'000'000).refreshNj, 0.0);

    DramChannel pb = freshChannel(t);
    pb.issue(DramCmd::RefreshBank, 0, 0, 0, 100);
    EXPECT_GT(dramEnergy(pb, 1'000'000).refreshNj, 0.0);

    // One all-bank REF covers eight banks; it must cost more than a
    // single per-bank REFpb but less than eight of them.
    double one_all = dramEnergy(all, 1'000'000).refreshNj -
                     dramEnergy(freshChannel(t), 1'000'000).refreshNj;
    double one_pb = dramEnergy(pb, 1'000'000).refreshNj -
                    dramEnergy(freshChannel(t), 1'000'000).refreshNj;
    EXPECT_GT(one_all, one_pb);
    EXPECT_LT(one_all, 8.0 * one_pb);
}

TEST(Channel, BlockBankDelaysAllCommands)
{
    DramTiming t = ddr3_1600();
    DramChannel ch = freshChannel(t);
    ch.blockBank(0, 2, 100, 500);
    EXPECT_FALSE(ch.canIssue(DramCmd::Activate, 0, 2, 1, 599));
    EXPECT_TRUE(ch.canIssue(DramCmd::Activate, 0, 2, 1, 600));
    // Other banks unaffected.
    EXPECT_TRUE(ch.canIssue(DramCmd::Activate, 0, 3, 1, 100));
}

TEST(Channel, CommandCountsAccumulate)
{
    DramTiming t = ddr3_1600();
    DramChannel ch = freshChannel(t);
    ch.issue(DramCmd::Activate, 0, 0, 5, 0);
    ch.issue(DramCmd::Read, 0, 0, 5, t.tRCD);
    ch.issue(DramCmd::Read, 0, 0, 5, t.tRCD + t.tCCD);
    EXPECT_EQ(ch.statActs.value(), 1u);
    EXPECT_EQ(ch.statReads.value(), 2u);
    EXPECT_EQ(ch.statWrites.value(), 0u);
}

TEST(Energy, BreakdownScalesWithActivity)
{
    DramTiming t = ddr3_1600();
    DramChannel ch = freshChannel(t);
    DramEnergyBreakdown idle = dramEnergy(ch, 1'000'000);
    EXPECT_GT(idle.backgroundNj, 0.0);
    EXPECT_DOUBLE_EQ(idle.readNj, 0.0);

    ch.issue(DramCmd::Activate, 0, 0, 5, 0);
    ch.issue(DramCmd::Read, 0, 0, 5, t.tRCD);
    DramEnergyBreakdown busy = dramEnergy(ch, 1'000'000);
    EXPECT_GT(busy.readNj, 0.0);
    EXPECT_GT(busy.actPreNj, 0.0);
    EXPECT_GT(busy.totalNj(), idle.totalNj());
}

TEST(Channel, CmdNamesPrintable)
{
    EXPECT_STREQ(dramCmdName(DramCmd::Activate), "ACT");
    EXPECT_STREQ(dramCmdName(DramCmd::Refresh), "REF");
    EXPECT_STREQ(dramCmdName(DramCmd::RefreshBank), "REFpb");
    EXPECT_STREQ(dramCmdName(DramCmd::SaSel), "SASEL");
}

// ---------------------------------------------------------------------
// Subarray FSM (SALP-1 / SALP-2 / MASA). Rows map to subarrays via the
// low row bits, so with the default 8 subarrays rows 0 and 8 share
// subarray 0 while row 1 lives in subarray 1.
// ---------------------------------------------------------------------

TEST(Salp, Salp1OverlapsPrechargeWithActToOtherSubarray)
{
    DramTiming t = ddr3_1600();
    DramChannel ch(geo(), t, 0, SalpMode::Salp1);

    ch.issue(DramCmd::Activate, 0, 0, 0, 0); // subarray 0.
    // SALP-1 keeps one open row per bank: while subarray 0 is open,
    // no other subarray may activate (rank tRRD satisfied or not).
    EXPECT_FALSE(ch.canIssue(DramCmd::Activate, 0, 0, 1, t.tRRD));

    Cycle pre = t.tRAS;
    ch.issue(DramCmd::Precharge, 0, 0, 0, pre);
    // The moment the PRE is issued, an ACT to *another* subarray is
    // legal — the in-flight tRP of subarray 0 is not consulted.
    EXPECT_TRUE(ch.canIssue(DramCmd::Activate, 0, 0, 1, pre));
    // The precharged subarray itself still owes tRP (== tRC here,
    // since the preset has tRC = tRAS + tRP exactly).
    EXPECT_FALSE(ch.canIssue(DramCmd::Activate, 0, 0, 8, pre));
    EXPECT_FALSE(ch.canIssue(DramCmd::Activate, 0, 0, 8,
                             pre + t.tRP - 1));
    EXPECT_TRUE(ch.canIssue(DramCmd::Activate, 0, 0, 8, pre + t.tRP));
}

TEST(Salp, Salp1PrechargeWaitsOutWriteRecovery)
{
    DramTiming t = ddr3_1600();
    DramChannel ch(geo(), t, 0, SalpMode::Salp1);

    ch.issue(DramCmd::Activate, 0, 0, 0, 0);
    Cycle wr = t.tRCD;
    ch.issue(DramCmd::Write, 0, 0, 0, wr);
    Cycle data_end = wr + t.tCWL + t.tBURST;
    // Without the second row-address latch the PRE itself must wait
    // out tWR, exactly like the monolithic bank.
    EXPECT_FALSE(ch.canIssue(DramCmd::Precharge, 0, 0, 0, data_end));
    EXPECT_FALSE(ch.canIssue(DramCmd::Precharge, 0, 0, 0,
                             data_end + t.tWR - 1));
    EXPECT_TRUE(ch.canIssue(DramCmd::Precharge, 0, 0, 0,
                            data_end + t.tWR));
}

TEST(Salp, Salp2PrechargeOverlapsWriteRecovery)
{
    DramTiming t = ddr3_1600();
    DramChannel ch(geo(), t, 0, SalpMode::Salp2);

    ch.issue(DramCmd::Activate, 0, 0, 0, 0);
    Cycle wr = t.tRCD;
    ch.issue(DramCmd::Write, 0, 0, 0, wr);
    Cycle data_end = wr + t.tCWL + t.tBURST;
    // SALP-2's second row-address latch frees the PRE at the write
    // data end (tRAS permitting) instead of data end + tWR.
    Cycle pre = std::max(data_end, t.tRAS);
    EXPECT_TRUE(ch.canIssue(DramCmd::Precharge, 0, 0, 0, pre));
    ch.issue(DramCmd::Precharge, 0, 0, 0, pre);

    // Another subarray activates immediately — overlapping both the
    // precharge and the deferred write recovery...
    EXPECT_TRUE(ch.canIssue(DramCmd::Activate, 0, 0, 1, pre));
    // ...while the same subarray waits for the recovery's internal
    // completion plus tRP.
    Cycle ready = std::max(t.tRC, data_end + t.tWR + t.tRP);
    EXPECT_FALSE(ch.canIssue(DramCmd::Activate, 0, 0, 8, ready - 1));
    EXPECT_TRUE(ch.canIssue(DramCmd::Activate, 0, 0, 8, ready));
}

TEST(Salp, MasaHoldsMultipleOpenRowsWithDesignatedLatch)
{
    DramTiming t = ddr3_1600();
    DramChannel ch(geo(), t, 0, SalpMode::Masa);

    ch.issue(DramCmd::Activate, 0, 0, 0, 0); // subarray 0.
    Cycle act2 = t.tRRD;
    // MASA: a second subarray activates while the first stays open.
    ASSERT_TRUE(ch.canIssue(DramCmd::Activate, 0, 0, 1, act2));
    ch.issue(DramCmd::Activate, 0, 0, 1, act2); // designates sub 1.
    EXPECT_TRUE(ch.bank(0, 0).subs[0].open);
    EXPECT_TRUE(ch.bank(0, 0).subs[1].open);

    // Column commands are legal only to the designated subarray.
    Cycle rd = act2 + t.tRCD;
    EXPECT_TRUE(ch.canIssue(DramCmd::Read, 0, 0, 1, rd));
    EXPECT_FALSE(ch.canIssue(DramCmd::Read, 0, 0, 0, rd));

    // SA_SEL relinks the latch back to subarray 0 after tSA.
    EXPECT_FALSE(ch.canIssue(DramCmd::SaSel, 0, 0, 2, rd)); // closed.
    ASSERT_TRUE(ch.canIssue(DramCmd::SaSel, 0, 0, 0, rd));
    ch.issue(DramCmd::SaSel, 0, 0, 0, rd);
    EXPECT_EQ(ch.statSaSels.value(), 1u);
    EXPECT_FALSE(ch.canIssue(DramCmd::Read, 0, 0, 0, rd + t.tSA - 1));
    EXPECT_TRUE(ch.canIssue(DramCmd::Read, 0, 0, 0, rd + t.tSA));
    EXPECT_FALSE(ch.canIssue(DramCmd::Read, 0, 0, 1, rd + t.tSA));
}

TEST(Salp, BankViewsAggregateSubarraysForModeObliviousConsumers)
{
    DramTiming t = ddr3_1600();
    DramChannel ch(geo(), t, 0, SalpMode::Masa);

    ch.issue(DramCmd::Activate, 0, 0, 0, 0);
    ch.issue(DramCmd::Activate, 0, 0, 1, t.tRRD);
    // The bank-level view shows the designated subarray's row and
    // stays open while any subarray is open.
    EXPECT_TRUE(ch.bank(0, 0).open());
    EXPECT_EQ(ch.bank(0, 0).row(), 1u);
    EXPECT_TRUE(ch.rowOpen(0, 0, 1));

    // Refresh is illegal while any subarray holds an open row.
    Cycle late = 10 * t.tRC;
    EXPECT_FALSE(ch.canIssue(DramCmd::Refresh, 0, 0, 0, late));
    ch.issue(DramCmd::Precharge, 0, 0, 0, t.tRAS);
    EXPECT_FALSE(ch.canIssue(DramCmd::Refresh, 0, 0, 0, late));
    ch.issue(DramCmd::Precharge, 0, 0, 1, t.tRRD + t.tRAS);
    EXPECT_FALSE(ch.bank(0, 0).open());
    EXPECT_TRUE(ch.canIssue(DramCmd::Refresh, 0, 0, 0, late));
}

} // namespace
} // namespace dbpsim
