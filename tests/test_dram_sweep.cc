/**
 * @file
 * Parameterized DRAM-FSM sweeps: every timing preset must enforce
 * every constraint class, and a randomized command fuzzer checks the
 * global invariant that whatever canIssue() admits never corrupts the
 * FSM (issue() asserts internally) while data bursts never overlap on
 * the shared bus.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/random.hh"
#include "dram/channel.hh"

namespace dbpsim {
namespace {

DramGeometry
geo()
{
    DramGeometry g;
    g.channels = 1;
    g.ranksPerChannel = 2;
    g.banksPerRank = 4;
    g.rowsPerBank = 64;
    g.rowBytes = 8192;
    g.lineBytes = 64;
    g.pageBytes = 4096;
    return g;
}

/** Each rank's first all-bank deadline, staggered as RefreshEngine
 *  staggers them: rank r of R at tREFI * (r + 1) / R. */
std::vector<Cycle>
staggeredRankDeadlines(const DramGeometry &g, const DramTiming &tm)
{
    std::vector<Cycle> due(g.ranksPerChannel);
    for (unsigned r = 0; r < g.ranksPerChannel; ++r)
        due[r] = tm.tREFI * (r + 1) / g.ranksPerChannel;
    return due;
}

class TimingSweep : public ::testing::TestWithParam<std::string>
{
  protected:
    DramTiming t() const { return dramTimingByName(GetParam()); }
};

TEST_P(TimingSweep, TrcdEnforced)
{
    DramTiming tm = t();
    DramChannel ch(geo(), tm, 0);
    ch.issue(DramCmd::Activate, 0, 0, 1, 0);
    EXPECT_FALSE(ch.canIssue(DramCmd::Read, 0, 0, 1, tm.tRCD - 1));
    EXPECT_TRUE(ch.canIssue(DramCmd::Read, 0, 0, 1, tm.tRCD));
}

TEST_P(TimingSweep, TrasEnforced)
{
    DramTiming tm = t();
    DramChannel ch(geo(), tm, 0);
    ch.issue(DramCmd::Activate, 0, 0, 1, 0);
    EXPECT_FALSE(ch.canIssue(DramCmd::Precharge, 0, 0, 0, tm.tRAS - 1));
    EXPECT_TRUE(ch.canIssue(DramCmd::Precharge, 0, 0, 0, tm.tRAS));
}

TEST_P(TimingSweep, TfawEnforced)
{
    DramTiming tm = t();
    DramChannel ch(geo(), tm, 0);
    Cycle now = 0;
    for (unsigned b = 0; b < 4; ++b) {
        ASSERT_TRUE(ch.canIssue(DramCmd::Activate, 0, b, 1, now));
        ch.issue(DramCmd::Activate, 0, b, 1, now);
        now += tm.tRRD;
    }
    // Four ACTs are in flight; rank 1 is unaffected.
    EXPECT_TRUE(ch.canIssue(DramCmd::Activate, 1, 0, 1, now));
    if (now < tm.tFAW) {
        EXPECT_FALSE(ch.canIssue(DramCmd::Activate, 0, 0, 2, now));
    }
}

TEST_P(TimingSweep, WriteReadTurnaround)
{
    DramTiming tm = t();
    DramChannel ch(geo(), tm, 0);
    ch.issue(DramCmd::Activate, 0, 0, 1, 0);
    Cycle wr_done = ch.issue(DramCmd::Write, 0, 0, 1, tm.tRCD);
    EXPECT_FALSE(ch.canIssue(DramCmd::Read, 0, 0, 1,
                             wr_done + tm.tWTR - 1));
    EXPECT_TRUE(ch.canIssue(DramCmd::Read, 0, 0, 1, wr_done + tm.tWTR));
}

TEST_P(TimingSweep, RefreshBlocksWholeRank)
{
    DramTiming tm = t();
    DramChannel ch(geo(), tm, 0);
    ASSERT_TRUE(ch.canIssue(DramCmd::Refresh, 0, 0, 0, 0));
    ch.issue(DramCmd::Refresh, 0, 0, 0, 0);
    for (unsigned b = 0; b < 4; ++b)
        EXPECT_FALSE(ch.canIssue(DramCmd::Activate, 0, b, 1,
                                 tm.tRFC - 1));
    EXPECT_TRUE(ch.canIssue(DramCmd::Activate, 0, 0, 1, tm.tRFC));
    // The other rank keeps working during the refresh.
    EXPECT_TRUE(ch.canIssue(DramCmd::Activate, 1, 0, 1, 1));
}

INSTANTIATE_TEST_SUITE_P(Presets, TimingSweep,
                         ::testing::Values("ddr3-1600", "ddr3-1333",
                                           "ddr3-1066"));

/**
 * Random legal-command fuzzer. Tries random commands each cycle; every
 * command canIssue() admits is issued (issue() would assert on FSM
 * corruption). Tracks read/write data bursts and checks the shared
 * data bus never carries two bursts at once.
 */
TEST(ChannelFuzz, LegalCommandsNeverOverlapDataBus)
{
    DramGeometry g = geo();
    DramTiming tm = ddr3_1600();
    DramChannel ch(g, tm, 0);
    Rng rng(2024);

    std::vector<std::pair<Cycle, Cycle>> bursts; // [start, end)
    Cycle issued_cmds = 0;
    std::vector<Cycle> ref_due = staggeredRankDeadlines(g, tm);

    for (Cycle now = 0; now < 20000; ++now) {
        // Refresh duty first, as a controller would.
        bool used = false;
        for (unsigned r = 0; r < g.ranksPerChannel && !used; ++r) {
            if (now >= ref_due[r] &&
                ch.canIssue(DramCmd::Refresh, r, 0, 0, now)) {
                ch.issue(DramCmd::Refresh, r, 0, 0, now);
                ref_due[r] += tm.tREFI;
                used = true;
            }
        }
        if (used)
            continue;

        // Try a few random commands; issue the first legal one.
        for (int attempt = 0; attempt < 4 && !used; ++attempt) {
            auto r = static_cast<unsigned>(
                rng.nextBelow(g.ranksPerChannel));
            auto b = static_cast<unsigned>(
                rng.nextBelow(g.banksPerRank));
            std::uint64_t row = rng.nextBelow(g.rowsPerBank);
            DramCmd cmd;
            switch (rng.nextBelow(4)) {
              case 0: cmd = DramCmd::Activate; break;
              case 1: cmd = DramCmd::Precharge; break;
              case 2: cmd = DramCmd::Read; break;
              default: cmd = DramCmd::Write; break;
            }
            // Column commands must target the open row to be legal.
            if (cmd == DramCmd::Read || cmd == DramCmd::Write) {
                const BankState &bs = ch.bank(r, b);
                if (!bs.open())
                    continue;
                row = bs.row();
            }
            if (!ch.canIssue(cmd, r, b, row, now))
                continue;
            Cycle done = ch.issue(cmd, r, b, row, now);
            ++issued_cmds;
            used = true;
            if (done != 0) {
                Cycle start = done - tm.tBURST;
                for (const auto &[s, e] : bursts) {
                    EXPECT_TRUE(done <= s || start >= e)
                        << "data bursts overlap at cycle " << now;
                }
                bursts.emplace_back(start, done);
                if (bursts.size() > 16)
                    bursts.erase(bursts.begin());
            }
        }
    }
    EXPECT_GT(issued_cmds, 1000u) << "fuzzer barely exercised the FSM";
}

/**
 * Randomized mirror-model check: an independently tracked "last ACT
 * per bank" model confirms tRC spacing on every accepted ACTIVATE.
 */
TEST(ChannelFuzz, ActivateSpacingHonorsTrc)
{
    DramGeometry g = geo();
    DramTiming tm = ddr3_1600();
    DramChannel ch(g, tm, 0);
    Rng rng(7);

    std::vector<Cycle> last_act(
        static_cast<std::size_t>(g.ranksPerChannel) * g.banksPerRank,
        kNeverCycle);
    std::vector<Cycle> ref_due = staggeredRankDeadlines(g, tm);

    for (Cycle now = 0; now < 30000; ++now) {
        for (unsigned r = 0; r < g.ranksPerChannel; ++r) {
            if (now >= ref_due[r] &&
                ch.canIssue(DramCmd::Refresh, r, 0, 0, now)) {
                ch.issue(DramCmd::Refresh, r, 0, 0, now);
                ref_due[r] += tm.tREFI;
            }
        }
        auto r = static_cast<unsigned>(rng.nextBelow(g.ranksPerChannel));
        auto b = static_cast<unsigned>(rng.nextBelow(g.banksPerRank));
        std::size_t slot = r * g.banksPerRank + b;
        const BankState &bs = ch.bank(r, b);
        if (bs.open()) {
            if (ch.canIssue(DramCmd::Precharge, r, b, 0, now))
                ch.issue(DramCmd::Precharge, r, b, 0, now);
        } else if (ch.canIssue(DramCmd::Activate, r, b, 3, now)) {
            if (last_act[slot] != kNeverCycle) {
                EXPECT_GE(now, last_act[slot] + tm.tRC)
                    << "ACT-to-ACT below tRC on rank " << r << " bank "
                    << b;
            }
            ch.issue(DramCmd::Activate, r, b, 3, now);
            last_act[slot] = now;
        }
    }
}

} // namespace
} // namespace dbpsim
