/**
 * @file
 * Tests for the extension mechanism beyond the paper's evaluated set:
 * the combined DBP-MCP channel+bank partitioning policy, which runs
 * DBP's interval gate and bank-share split per MCP channel group.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "part/part_combined.hh"
#include "part/part_factory.hh"
#include "sim/schemes.hh"
#include "sim/system.hh"
#include "trace/synthetic.hh"

namespace dbpsim {
namespace {

ThreadMemProfile
profile(double mpki, double rbhr, double rowpar,
        std::uint64_t reqs = 1000)
{
    ThreadMemProfile p;
    p.mpki = mpki;
    p.rowBufferHitRate = rbhr;
    p.rowParallelism = rowpar;
    p.requests = reqs;
    p.instructions = 1'000'000;
    return p;
}

DbpParams
fastDbp()
{
    DbpParams p;
    p.cooldownIntervals = 1;
    p.warmupIntervals = 0;
    return p;
}

TEST(Combined, FactoryBuildsIt)
{
    PartitionInit init;
    init.numThreads = 4;
    init.geometry.channels = 2;
    init.geometry.ranksPerChannel = 2;
    init.geometry.banksPerRank = 8;
    auto p = makePartitionPolicy("dbp-mcp", init);
    EXPECT_EQ(p->name(), "dbp-mcp");
    EXPECT_EQ(p->initialAssignment().size(), 4u);
}

TEST(Combined, SeparatesGroupsByChannelThenBank)
{
    CombinedPolicy policy(4, 2, 2, 8, fastDbp());
    policy.initialAssignment();
    // High-RBL streamer, low-RBL irregular x2, one light.
    std::vector<ThreadMemProfile> profiles = {
        profile(20, 0.95, 1.2, 20000),  // HiRbl group.
        profile(18, 0.2, 6.0, 18000),   // LoRbl group.
        profile(16, 0.25, 5.0, 16000),  // LoRbl group.
        profile(0.3, 0.5, 1.0, 10),     // low intensity.
    };
    auto next = policy.onInterval(profiles);
    ASSERT_TRUE(next.has_value());

    auto channels_of = [&](unsigned t) {
        std::set<unsigned> chans;
        for (unsigned c : (*next)[t])
            chans.insert(c / (2 * 8));
        return chans;
    };
    // The two intensive groups live on different channels.
    std::set<unsigned> hi = channels_of(0);
    std::set<unsigned> lo1 = channels_of(1);
    ASSERT_EQ(hi.size(), 1u);
    ASSERT_EQ(lo1.size(), 1u);
    EXPECT_NE(*hi.begin(), *lo1.begin());
    // The two irregular threads share a channel but not banks.
    EXPECT_EQ(channels_of(2), lo1);
    std::set<unsigned> b1((*next)[1].begin(), (*next)[1].end());
    for (unsigned c : (*next)[2])
        EXPECT_FALSE(b1.count(c))
            << "intra-group bank sharing survived";
}

TEST(Combined, LightMembersGetSharedSubSlice)
{
    CombinedPolicy policy(4, 2, 2, 8, fastDbp());
    policy.initialAssignment();
    std::vector<ThreadMemProfile> profiles = {
        profile(20, 0.95, 1.2, 20000), // HiRbl.
        profile(18, 0.2, 6.0, 18000),  // LoRbl.
        profile(0.3, 0.5, 1.0, 10),    // light.
        profile(0.2, 0.5, 1.0, 10),    // light.
    };
    auto next = policy.onInterval(profiles);
    ASSERT_TRUE(next.has_value());
    // Lights share one identical (small) set.
    EXPECT_EQ((*next)[2], (*next)[3]);
    EXPECT_LT((*next)[2].size(), (*next)[1].size());
}

TEST(Combined, NoChangeReturnsNullopt)
{
    CombinedPolicy policy(2, 2, 2, 8, fastDbp());
    policy.initialAssignment();
    std::vector<ThreadMemProfile> profiles = {
        profile(20, 0.95, 1.2, 20000), profile(18, 0.2, 6.0, 18000)};
    ASSERT_TRUE(policy.onInterval(profiles).has_value());
    EXPECT_FALSE(policy.onInterval(profiles).has_value());
    EXPECT_EQ(policy.repartitions(), 1u);
}

TEST(Combined, HoldsBackTheSameIntervalsAsDbp)
{
    // Default DbpParams: two warm-up intervals, a two-interval
    // cool-down. Threads 1-3 start light and turn heavy one by one
    // (a light-to-heavy flip shows through the EWMA at once). Every
    // heavy thread is a non-streaming low-RBL thread, so DBP's shares
    // and MCP's channel groups change only when a thread flips: both
    // policies adopt exactly when the gate lets a flip through.
    PartitionInit init;
    init.numThreads = 4;
    auto dbp = makePartitionPolicy("dbp", init);
    auto combined = makePartitionPolicy("dbp-mcp", init);
    dbp->initialAssignment();
    combined->initialAssignment();

    const ThreadMemProfile heavy = profile(20, 0.3, 5.0, 20000);
    const ThreadMemProfile light = profile(0.1, 0.5, 1.0, 10);
    // Interval from which thread 1, 2, 3 is heavy.
    const unsigned heavy_from[4] = {0, 4, 8, 9};
    std::vector<bool> dbp_adopted, combined_adopted;
    for (unsigned i = 0; i < 13; ++i) {
        std::vector<ThreadMemProfile> profiles;
        for (unsigned t = 0; t < 4; ++t)
            profiles.push_back(i >= heavy_from[t] ? heavy : light);
        dbp_adopted.push_back(dbp->onInterval(profiles).has_value());
        combined_adopted.push_back(
            combined->onInterval(profiles).has_value());
    }
    // Warm-up holds 0-1 and the cool-down 2; 3 adopts the first
    // light set. Each adoption holds the next interval back (4, 6, 9,
    // 11), so thread 3's flip at 9 waits until 10.
    const std::vector<bool> expected = {false, false, false, true,
                                        false, true,  false, false,
                                        true,  false, true,  false,
                                        false};
    EXPECT_EQ(dbp_adopted, expected);
    EXPECT_EQ(combined_adopted, expected);
}

/** Thread 0 streams (a donor); 1-3 receive by row-miss intensity. */
std::vector<ThreadMemProfile>
oneDonorThreeReceivers()
{
    return {profile(25, 0.95, 1.0), profile(17, 0.3, 6.0),
            profile(12, 0.5, 3.0), profile(9, 0.4, 2.0)};
}

/** Subarrays per bank (colors per bank). */
class CombinedOneChannel : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CombinedOneChannel, SetsAreDbpBankSharesInWholeBanks)
{
    // One channel: MCP's groups all share it, so DBP-MCP runs DBP's
    // split over the whole 2x8 machine and must carve exactly DBP's
    // bank shares. Thread 0's surplus of 2 banks goes one each to
    // threads 1 and 2 by largest remainder (exact 1.02, 0.52, 0.46).
    // With 2 subarrays every share is whole banks' worth of colors.
    const unsigned subs = GetParam();
    const std::vector<ThreadMemProfile> profiles =
        oneDonorThreeReceivers();
    DbpPolicy dbp(4, 1, 2, 8, fastDbp(), subs);
    const std::vector<unsigned> shares = dbp.bankShares(profiles);
    ASSERT_EQ(shares, (std::vector<unsigned>{2, 5, 5, 4}));

    CombinedPolicy policy(4, 1, 2, 8, fastDbp(), {}, subs);
    policy.initialAssignment();
    auto next = policy.onInterval(profiles);
    ASSERT_TRUE(next.has_value());
    std::set<unsigned> seen;
    for (unsigned t = 0; t < 4; ++t) {
        EXPECT_EQ((*next)[t].size(), shares[t] * subs) << "thread " << t;
        // Whole banks: a thread owning one color of a bank owns all
        // of the bank's colors.
        std::map<unsigned, unsigned> colors_per_bank;
        for (unsigned c : (*next)[t]) {
            EXPECT_TRUE(seen.insert(c).second) << "color " << c;
            ++colors_per_bank[c / subs];
        }
        for (const auto &[bank, count] : colors_per_bank)
            EXPECT_EQ(count, subs) << "thread " << t << " bank " << bank;
    }
}

INSTANTIATE_TEST_SUITE_P(Subarrays, CombinedOneChannel,
                         ::testing::Values(1u, 2u));

TEST(Combined, FlatDemandRemovesDonors)
{
    // A light thread 3 takes one bank; heavy threads split 15. Thread
    // 0 streams, so it keeps streamBanks and donates 3 banks, unless
    // flatDemand treats every heavy thread alike.
    std::vector<ThreadMemProfile> profiles = oneDonorThreeReceivers();
    profiles[3] = profile(0.5, 0.5, 1.0);
    auto set_sizes = [&](bool flat) {
        DbpParams params = fastDbp();
        params.flatDemand = flat;
        CombinedPolicy policy(4, 1, 2, 8, params);
        policy.initialAssignment();
        std::vector<std::size_t> sizes;
        if (auto next = policy.onInterval(profiles))
            for (const auto &set : *next)
                sizes.push_back(set.size());
        return sizes;
    };
    EXPECT_EQ(set_sizes(false), (std::vector<std::size_t>{2, 7, 6, 1}));
    EXPECT_EQ(set_sizes(true), (std::vector<std::size_t>{5, 5, 5, 1}));
}

TEST(Combined, EndToEndRunsAndProgresses)
{
    auto make = [](double mpki, double rbhr_knob, unsigned streams,
                   std::uint64_t seed) {
        SyntheticParams sp;
        sp.seed = seed;
        sp.phases[0].mpki = mpki;
        sp.phases[0].streams = streams;
        sp.phases[0].seqRunLines = rbhr_knob;
        sp.phases[0].randomFrac = rbhr_knob > 32 ? 0.02 : 0.5;
        sp.phases[0].footprintPages = 4096;
        return std::make_unique<SyntheticSource>(sp);
    };
    auto s0 = make(25, 128, 1, 1);
    auto s1 = make(18, 2, 6, 2);
    auto s2 = make(16, 2, 6, 3);
    auto s3 = make(0.4, 16, 1, 4);
    std::vector<TraceSource *> raw{s0.get(), s1.get(), s2.get(),
                                   s3.get()};
    SystemParams params;
    params.numCores = 4;
    params.geometry.rowsPerBank = 4096;
    params.profileIntervalCpu = 200'000;
    params.partition = "dbp-mcp";
    System sys(params, raw);
    auto ipc = sys.runAndMeasure(300'000, 400'000);
    for (double v : ipc)
        EXPECT_GT(v, 0.0);
}

TEST(Combined, SchemesResolve)
{
    EXPECT_EQ(schemeByName("DBP-MCP").partition, "dbp-mcp");
    EXPECT_EQ(schemeByName("DBP-MCP-TCM").scheduler, "tcm");
}

} // namespace
} // namespace dbpsim
