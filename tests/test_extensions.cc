/**
 * @file
 * Tests for the extension mechanism beyond the paper's evaluated set:
 * the combined DBP-MCP channel+bank partitioning policy.
 */

#include <gtest/gtest.h>

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
