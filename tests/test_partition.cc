/**
 * @file
 * Partitioning tests: the color layout, UBP's equal disjoint
 * channel-spread shares and the one whole-bank carve every
 * equal-split policy starts from,
 * DBP's demand estimation, proportional allocation, hysteresis and
 * incremental (migration-minimizing) reassignment, MCP's grouping,
 * the factory, and the PartitionManager's OS enforcement + migration
 * cost application.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <tuple>

#include "mem/sched_frfcfs.hh"
#include "part/manager.hh"
#include "part/part_dbp.hh"
#include "part/part_factory.hh"
#include "part/part_mcp.hh"

namespace dbpsim {
namespace {

constexpr unsigned kChan = 2, kRanks = 2, kBanks = 8;
constexpr unsigned kColors = kChan * kRanks * kBanks;

ThreadMemProfile
profile(double mpki, double rbhr, double mlp, std::uint64_t reqs = 1000)
{
    ThreadMemProfile p;
    p.mpki = mpki;
    p.rowBufferHitRate = rbhr;
    p.mlp = mlp;
    p.blp = mlp; // for policies that read the censored signal.
    p.rowParallelism = mlp;
    p.requests = reqs;
    p.instructions = 1'000'000;
    return p;
}

/** DBP params that react on the first interval (unit tests). */
DbpParams
fastDbp()
{
    DbpParams p;
    p.cooldownIntervals = 1;
    p.warmupIntervals = 0;
    return p;
}

/** Channel of a color under the canonical ordering. */
unsigned
channelOfColor(unsigned color)
{
    return color / (kRanks * kBanks);
}

/** A factory-built policy on the kChan x kRanks x kBanks machine. */
std::unique_ptr<PartitionPolicy>
makePolicy(const std::string &name, unsigned threads,
           unsigned subarrays = 1)
{
    PartitionInit init;
    init.numThreads = threads;
    init.geometry.channels = kChan;
    init.geometry.ranksPerChannel = kRanks;
    init.geometry.banksPerRank = kBanks;
    init.coloredSubarrays = subarrays;
    return makePartitionPolicy(name, init);
}

TEST(ColorOrder, CoversAllColorsOnce)
{
    const std::vector<unsigned> order =
        ColorLayout(kChan, kRanks, kBanks).spread();
    EXPECT_EQ(order.size(), kColors);
    std::set<unsigned> unique(order.begin(), order.end());
    EXPECT_EQ(unique.size(), kColors);
}

TEST(ColorOrder, ConsecutiveEntriesAlternateChannels)
{
    const std::vector<unsigned> order =
        ColorLayout(kChan, kRanks, kBanks).spread();
    // Within every group of kChan entries, all channels appear.
    for (std::size_t i = 0; i + kChan <= order.size(); i += kChan) {
        std::set<unsigned> chans;
        for (unsigned j = 0; j < kChan; ++j)
            chans.insert(channelOfColor(order[i + j]));
        EXPECT_EQ(chans.size(), kChan);
    }
}

TEST(Ubp, EqualDisjointSpanningShares)
{
    PartitionAssignment a = makePolicy("ubp", 8)->initialAssignment();
    ASSERT_EQ(a.size(), 8u);

    std::set<unsigned> all;
    for (const auto &set : a) {
        EXPECT_EQ(set.size(), 4u); // 32 banks / 8 threads.
        std::set<unsigned> chans;
        for (unsigned c : set) {
            EXPECT_TRUE(all.insert(c).second) << "color shared";
            chans.insert(channelOfColor(c));
        }
        // Each share spans both channels.
        EXPECT_EQ(chans.size(), kChan);
    }
    EXPECT_EQ(all.size(), kColors);
}

TEST(Ubp, RemainderGoesToFirstThreads)
{
    PartitionAssignment a =
        makePolicy("ubp", 3)->initialAssignment(); // 32 / 3.
    EXPECT_EQ(a[0].size(), 11u);
    EXPECT_EQ(a[1].size(), 11u);
    EXPECT_EQ(a[2].size(), 10u);
}

TEST(Ubp, StaticPolicyNeverRepartitions)
{
    auto ubp = makePolicy("ubp", 4);
    ubp->initialAssignment();
    std::vector<ThreadMemProfile> profiles(4, profile(10, 0.5, 3));
    EXPECT_FALSE(ubp->onInterval(profiles).has_value());
}

/** (colors per bank, threads) on the kChan x kRanks x kBanks machine. */
class InitialCarve
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(InitialCarve, EqualSplitPoliciesAgreeInWholeBanks)
{
    const auto [subs, threads] = GetParam();
    const PartitionAssignment ubp =
        makePolicy("ubp", threads, subs)->initialAssignment();
    EXPECT_EQ(makePolicy("dbp", threads, subs)->initialAssignment(), ubp);
    EXPECT_EQ(makePolicy("dbp-mcp", threads, subs)->initialAssignment(),
              ubp);
    ASSERT_EQ(ubp.size(), threads);
    std::size_t smallest = kColors * subs;
    std::size_t largest = 0;
    for (const auto &set : ubp) {
        std::map<unsigned, unsigned> per_bank;
        for (unsigned c : set)
            ++per_bank[c / subs];
        for (const auto &[bank, colors] : per_bank)
            EXPECT_EQ(colors, subs) << "bank " << bank << " is split";
        smallest = std::min(smallest, set.size());
        largest = std::max(largest, set.size());
    }
    EXPECT_GE(smallest, subs);
    EXPECT_LE(largest - smallest, subs); // equal up to one bank.
}

TEST_P(InitialCarve, NoneGivesEveryThreadEveryColor)
{
    const auto [subs, threads] = GetParam();
    std::vector<unsigned> all(kColors * subs);
    std::iota(all.begin(), all.end(), 0u);
    EXPECT_EQ(makePolicy("none", threads, subs)->initialAssignment(),
              PartitionAssignment(threads, all));
}

INSTANTIATE_TEST_SUITE_P(
    SubarraysThreads, InitialCarve,
    ::testing::Combine(::testing::Values(1u, 2u),
                       ::testing::Values(3u, 8u, 40u)),
    [](const ::testing::TestParamInfo<InitialCarve::ParamType> &p) {
        return "s" + std::to_string(std::get<0>(p.param)) + "_t" +
            std::to_string(std::get<1>(p.param));
    });

TEST(Dbp, InitialAssignmentIsEqual)
{
    DbpPolicy dbp(8, kChan, kRanks, kBanks);
    PartitionAssignment a = dbp.initialAssignment();
    std::set<unsigned> all;
    for (const auto &set : a) {
        EXPECT_EQ(set.size(), 4u);
        for (unsigned c : set)
            EXPECT_TRUE(all.insert(c).second);
    }
}

TEST(Dbp, SharesProportionalToDemand)
{
    DbpPolicy dbp(4, kChan, kRanks, kBanks);
    std::vector<ThreadMemProfile> profiles = {
        profile(17, 0.3, 6.0),  // heavy, high BLP.
        profile(25, 0.95, 1.0), // heavy, streaming.
        profile(0.4, 0.5, 1.0), // light.
        profile(0.1, 0.5, 1.0), // light.
    };
    auto shares = dbp.bankShares(profiles);
    EXPECT_GT(shares[0], shares[1]);
    EXPECT_GE(shares[1], 1u);
    // Light threads report the shared light set.
    EXPECT_EQ(shares[2], shares[3]);
    EXPECT_LE(shares[2], kColors / 4);
    // Heavy shares + light set cover the machine.
    EXPECT_EQ(shares[0] + shares[1] + shares[2], kColors);
}

TEST(Dbp, AllLightSharesEverything)
{
    DbpPolicy dbp(4, kChan, kRanks, kBanks, fastDbp());
    dbp.initialAssignment();
    std::vector<ThreadMemProfile> profiles(4, profile(0.1, 0.5, 1.0));
    auto next = dbp.onInterval(profiles);
    ASSERT_TRUE(next.has_value());
    for (const auto &set : *next)
        EXPECT_EQ(set.size(), kColors);
}

TEST(Dbp, EveryHeavyThreadGetsAtLeastOneBank)
{
    DbpPolicy dbp(8, 1, 1, 8); // 8 threads, 8 banks.
    std::vector<ThreadMemProfile> profiles(8, profile(20, 0.3, 8.0));
    auto shares = dbp.bankShares(profiles);
    for (unsigned t = 0; t < 8; ++t)
        EXPECT_GE(shares[t], 1u);
    unsigned sum = 0;
    for (unsigned t = 0; t < 8; ++t)
        sum += shares[t];
    EXPECT_EQ(sum, 8u);
}

TEST(Dbp, HysteresisSuppressesNoChange)
{
    DbpPolicy dbp(4, kChan, kRanks, kBanks, fastDbp());
    dbp.initialAssignment();
    std::vector<ThreadMemProfile> profiles = {
        profile(17, 0.3, 6.0), profile(25, 0.95, 1.0),
        profile(0.4, 0.5, 1.0), profile(0.1, 0.5, 1.0)};
    auto first = dbp.onInterval(profiles);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(dbp.repartitions(), 1u);

    // Identical profiles: no new assignment.
    auto second = dbp.onInterval(profiles);
    EXPECT_FALSE(second.has_value());
    EXPECT_EQ(dbp.repartitions(), 1u);
}

TEST(Dbp, StrongHysteresisAbsorbsSmallChanges)
{
    DbpParams params = fastDbp();
    params.hysteresisBanks = 3;
    DbpPolicy dbp(2, kChan, kRanks, kBanks, params);
    dbp.initialAssignment();
    // Strongly asymmetric demand: first adoption moves >= 3 banks.
    std::vector<ThreadMemProfile> profiles = {
        profile(17, 0.3, 6.0), profile(25, 0.95, 2.0)};
    ASSERT_TRUE(dbp.onInterval(profiles).has_value());

    // Parallelism wiggle that moves shares by < 3 banks: suppressed.
    profiles[1] = profile(25, 0.95, 2.4);
    EXPECT_FALSE(dbp.onInterval(profiles).has_value());
}

TEST(Dbp, IncrementalReassignmentMovesFewColors)
{
    DbpPolicy dbp(4, kChan, kRanks, kBanks, fastDbp());
    dbp.initialAssignment();
    std::vector<ThreadMemProfile> profiles = {
        profile(17, 0.3, 6.0), profile(25, 0.95, 2.0),
        profile(12, 0.5, 3.0), profile(9, 0.5, 2.0)};
    auto first = dbp.onInterval(profiles);
    ASSERT_TRUE(first.has_value());

    // Raise thread 1's parallelism: only a few colors should move.
    profiles[1] = profile(25, 0.5, 5.0);
    auto second = dbp.onInterval(profiles);
    ASSERT_TRUE(second.has_value());

    unsigned moved = 0;
    for (unsigned t = 0; t < 4; ++t) {
        std::set<unsigned> before((*first)[t].begin(), (*first)[t].end());
        for (unsigned c : (*second)[t])
            if (!before.count(c))
                ++moved;
    }
    EXPECT_LE(moved, 6u) << "incremental reassignment moved " << moved
                         << " colors";
}

TEST(Dbp, AssignmentsAreDisjointAndComplete)
{
    DbpPolicy dbp(4, kChan, kRanks, kBanks, fastDbp());
    dbp.initialAssignment();
    std::vector<ThreadMemProfile> profiles = {
        profile(17, 0.3, 6.0), profile(25, 0.95, 1.0),
        profile(0.4, 0.5, 1.0), profile(8, 0.6, 2.5)};
    auto next = dbp.onInterval(profiles);
    ASSERT_TRUE(next.has_value());

    // Heavy threads' sets are mutually disjoint and disjoint from the
    // light set; the union covers all colors.
    std::set<unsigned> seen;
    for (unsigned t = 0; t < 4; ++t) {
        if (t == 2)
            continue; // light.
        for (unsigned c : (*next)[t])
            EXPECT_TRUE(seen.insert(c).second)
                << "color " << c << " assigned twice";
    }
    for (unsigned c : (*next)[2])
        EXPECT_TRUE(seen.insert(c).second);
    EXPECT_EQ(seen.size(), kColors);
}

// Eight threads over four banks: the equal split wraps around, so two
// threads start on each bank. The first hand-off that leaves light and
// heavy threads must still hand every color out exactly once.
TEST(Dbp, HandOffAfterWrappedSplitHandsOutEveryColorOnce)
{
    constexpr unsigned kThreads = 8, kFewBanks = 4;
    DbpPolicy dbp(kThreads, 1, 1, kFewBanks, fastDbp());
    dbp.initialAssignment();
    std::vector<ThreadMemProfile> profiles(kThreads,
                                           profile(0.1, 0.5, 1.0));
    const std::set<unsigned> heavy = {0, 3, 6};
    for (unsigned t : heavy)
        profiles[t] = profile(20, 0.3, 4.0);
    auto next = dbp.onInterval(profiles);
    ASSERT_TRUE(next.has_value());

    std::set<unsigned> seen;
    for (unsigned t : heavy) {
        EXPECT_FALSE((*next)[t].empty()) << "heavy thread " << t;
        for (unsigned c : (*next)[t])
            EXPECT_TRUE(seen.insert(c).second)
                << "color " << c << " handed out twice";
    }
    const std::vector<unsigned> &light = (*next)[1];
    for (unsigned t = 0; t < kThreads; ++t) {
        if (!heavy.count(t)) {
            EXPECT_EQ((*next)[t], light) << "light thread " << t;
        }
    }
    for (unsigned c : light)
        EXPECT_TRUE(seen.insert(c).second)
            << "color " << c << " handed out twice";
    EXPECT_EQ(seen.size(), kFewBanks);
}

TEST(Dbp, HeavyThreadColorsSpanChannels)
{
    DbpPolicy dbp(4, kChan, kRanks, kBanks, fastDbp());
    dbp.initialAssignment();
    std::vector<ThreadMemProfile> profiles = {
        profile(17, 0.3, 6.0), profile(25, 0.95, 2.0),
        profile(12, 0.5, 3.0), profile(9, 0.5, 2.0)};
    auto next = dbp.onInterval(profiles);
    ASSERT_TRUE(next.has_value());
    for (unsigned t = 0; t < 4; ++t) {
        if ((*next)[t].size() < 2)
            continue;
        std::set<unsigned> chans;
        for (unsigned c : (*next)[t])
            chans.insert(channelOfColor(c));
        EXPECT_EQ(chans.size(), kChan)
            << "thread " << t << " confined to one channel";
    }
}

TEST(Mcp, ThreeGroupsSplitChannels)
{
    McpPolicy mcp(4, kChan, kRanks, kBanks);
    std::vector<ThreadMemProfile> profiles = {
        profile(0.3, 0.5, 1.0, 10),     // low intensity.
        profile(20, 0.95, 1.0, 20000),  // high RBL.
        profile(18, 0.2, 6.0, 18000),   // low RBL.
        profile(16, 0.9, 1.5, 16000),   // high RBL.
    };
    auto chans = mcp.channelAssignment(profiles);
    // The two intensive groups land on different channels.
    EXPECT_NE(chans[1], chans[2]);
    EXPECT_EQ(chans[1], chans[3]);
    // Low-intensity thread shares one of them.
    EXPECT_EQ(chans[0].size(), 1u);
}

TEST(Mcp, SingleGroupGetsEverything)
{
    McpPolicy mcp(2, kChan, kRanks, kBanks);
    std::vector<ThreadMemProfile> profiles = {
        profile(20, 0.9, 1.0, 20000), profile(22, 0.92, 1.0, 22000)};
    auto chans = mcp.channelAssignment(profiles);
    EXPECT_EQ(chans[0].size(), kChan);
    EXPECT_EQ(chans[1].size(), kChan);
}

TEST(Mcp, AssignmentUsesWholeChannels)
{
    McpPolicy mcp(3, kChan, kRanks, kBanks);
    mcp.initialAssignment();
    std::vector<ThreadMemProfile> profiles = {
        profile(20, 0.95, 1.0, 20000), profile(18, 0.2, 6.0, 18000),
        profile(0.3, 0.5, 1.0, 10)};
    auto next = mcp.onInterval(profiles);
    ASSERT_TRUE(next.has_value());
    // Every thread's set is a multiple of a channel's bank count and
    // all colors of each claimed channel are included.
    for (const auto &set : *next) {
        EXPECT_EQ(set.size() % (kRanks * kBanks), 0u);
        std::set<unsigned> chans;
        for (unsigned c : set)
            chans.insert(channelOfColor(c));
        EXPECT_EQ(set.size(), chans.size() * kRanks * kBanks);
    }
}

TEST(Mcp, NoChangeReturnsNullopt)
{
    McpPolicy mcp(2, kChan, kRanks, kBanks);
    mcp.initialAssignment();
    std::vector<ThreadMemProfile> profiles = {
        profile(20, 0.95, 1.0, 20000), profile(18, 0.2, 6.0, 18000)};
    ASSERT_TRUE(mcp.onInterval(profiles).has_value());
    EXPECT_FALSE(mcp.onInterval(profiles).has_value());
}

TEST(Factory, BuildsEveryPolicy)
{
    PartitionInit init;
    init.numThreads = 4;
    init.geometry.channels = kChan;
    init.geometry.ranksPerChannel = kRanks;
    init.geometry.banksPerRank = kBanks;
    for (const auto &name : partitionPolicyNames()) {
        auto p = makePartitionPolicy(name, init);
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(p->name(), name);
        EXPECT_EQ(p->initialAssignment().size(), 4u);
    }
}

TEST(Factory, RejectsUnknown)
{
    PartitionInit init;
    EXPECT_EXIT({ makePartitionPolicy("bogus", init); },
                ::testing::ExitedWithCode(1), "unknown partition");
}

class ManagerFixture : public ::testing::Test
{
  protected:
    ManagerFixture()
    {
        geo_.channels = kChan;
        geo_.ranksPerChannel = kRanks;
        geo_.banksPerRank = kBanks;
        geo_.rowsPerBank = 256;
        geo_.rowBytes = 8192;
        geo_.lineBytes = 64;
        geo_.pageBytes = 4096;
        map_ = std::make_unique<AddressMap>(geo_);
        os_ = std::make_unique<OsMemory>(*map_, 2);
        ControllerParams cp;
        cp.numThreads = 2;
        for (unsigned ch = 0; ch < kChan; ++ch)
            mcs_.push_back(std::make_unique<MemoryController>(
                ch, *map_, ddr3_1600(), cp, &sched_, nullptr));
    }

    PartitionManager
    makeManager(const std::string &policy, PartitionManagerParams pm = {})
    {
        PartitionInit init;
        init.numThreads = 2;
        init.geometry = geo_;
        init.dbp = fastDbp();
        std::vector<MemoryController *> raw;
        for (auto &m : mcs_)
            raw.push_back(m.get());
        return PartitionManager(makePartitionPolicy(policy, init), *os_,
                                raw, *map_, pm);
    }

    DramGeometry geo_;
    std::unique_ptr<AddressMap> map_;
    std::unique_ptr<OsMemory> os_;
    FrFcfsScheduler sched_;
    std::vector<std::unique_ptr<MemoryController>> mcs_;
};

TEST_F(ManagerFixture, StartAppliesInitialAssignmentToOs)
{
    PartitionManager mgr = makeManager("ubp");
    mgr.start();
    EXPECT_EQ(os_->colorSet(0).size(), kColors / 2);
    EXPECT_EQ(os_->colorSet(1).size(), kColors / 2);
    // Disjoint.
    std::set<unsigned> s0(os_->colorSet(0).begin(),
                          os_->colorSet(0).end());
    for (unsigned c : os_->colorSet(1))
        EXPECT_FALSE(s0.count(c));
}

TEST_F(ManagerFixture, RepartitionMigratesPages)
{
    PartitionManagerParams pm;
    pm.migration = MigrationMode::Eager;
    PartitionManager mgr = makeManager("dbp", pm);
    mgr.start();
    // Touch pages for both threads under the equal partition.
    for (int i = 0; i < 64; ++i) {
        os_->translate(0, static_cast<Addr>(i) * 4096);
        os_->translate(1, static_cast<Addr>(i) * 4096);
    }
    // Radically different demands force a repartition.
    std::vector<ThreadMemProfile> profiles = {
        profile(20, 0.2, 8.0), profile(20, 0.95, 1.0)};
    mgr.onInterval(profiles, 1000);
    EXPECT_EQ(mgr.statRepartitions.value(), 1u);
    EXPECT_GT(mgr.statPagesMigrated.value(), 0u);
    EXPECT_EQ(os_->nonconformingPages(0), 0u);
    EXPECT_EQ(os_->nonconformingPages(1), 0u);
}

TEST_F(ManagerFixture, MigrationNoneLeavesPagesInPlace)
{
    PartitionManagerParams pm;
    pm.migration = MigrationMode::None;
    PartitionManager mgr = makeManager("dbp", pm);
    mgr.start();
    for (int i = 0; i < 64; ++i)
        os_->translate(1, static_cast<Addr>(i) * 4096);
    std::vector<ThreadMemProfile> profiles = {
        profile(20, 0.2, 8.0), profile(20, 0.95, 1.0)};
    mgr.onInterval(profiles, 1000);
    EXPECT_EQ(mgr.statPagesMigrated.value(), 0u);
    EXPECT_GT(os_->nonconformingPages(1), 0u);
}

TEST_F(ManagerFixture, EagerMigrationChargesBanks)
{
    PartitionManagerParams pm;
    pm.migration = MigrationMode::Eager;
    PartitionManager mgr = makeManager("dbp", pm);
    mgr.start();
    for (int i = 0; i < 64; ++i)
        os_->translate(1, static_cast<Addr>(i) * 4096);
    std::vector<ThreadMemProfile> profiles = {
        profile(20, 0.2, 8.0), profile(20, 0.95, 1.0)};
    mgr.onInterval(profiles, 0);

    // Some bank must now be blocked well past cycle 0.
    bool any_blocked = false;
    for (auto &mc : mcs_)
        for (unsigned r = 0; r < kRanks; ++r)
            for (unsigned b = 0; b < kBanks; ++b)
                if (mc->channel().bank(r, b).nextActivate() > 100)
                    any_blocked = true;
    EXPECT_TRUE(any_blocked);
}

TEST_F(ManagerFixture, FreeMigrationChargesNothing)
{
    PartitionManagerParams pm;
    pm.migration = MigrationMode::EagerFree;
    PartitionManager mgr = makeManager("dbp", pm);
    mgr.start();
    for (int i = 0; i < 64; ++i)
        os_->translate(1, static_cast<Addr>(i) * 4096);
    std::vector<ThreadMemProfile> profiles = {
        profile(20, 0.2, 8.0), profile(20, 0.95, 1.0)};
    mgr.onInterval(profiles, 0);

    EXPECT_GT(mgr.statPagesMigrated.value(), 0u);
    for (auto &mc : mcs_)
        for (unsigned r = 0; r < kRanks; ++r)
            for (unsigned b = 0; b < kBanks; ++b)
                EXPECT_LE(mc->channel().bank(r, b).nextActivate(), 100u);
}

TEST(MigrationMode, Names)
{
    EXPECT_EQ(migrationModeByName("none"), MigrationMode::None);
    EXPECT_EQ(migrationModeByName("lazy"), MigrationMode::Lazy);
    EXPECT_EQ(migrationModeByName("eager"), MigrationMode::Eager);
    EXPECT_EQ(migrationModeByName("free"), MigrationMode::EagerFree);
}

TEST_F(ManagerFixture, LazyMigrationMovesOnTouch)
{
    // Default mode: pages move only when re-touched, rate limited.
    PartitionManager mgr = makeManager("dbp");
    mgr.start();
    for (int i = 0; i < 64; ++i)
        os_->translate(1, static_cast<Addr>(i) * 4096);
    std::vector<ThreadMemProfile> profiles = {
        profile(20, 0.2, 8.0), profile(20, 0.95, 1.0)};
    mgr.onInterval(profiles, 1000);
    ASSERT_EQ(mgr.statRepartitions.value(), 1u);
    // No eager movement at the repartition itself.
    std::uint64_t before = os_->nonconformingPages(1);
    EXPECT_GT(before, 0u);
    EXPECT_TRUE(os_->drainLazyMoves().empty());

    // Re-touching pages migrates them one by one, at most one move
    // per kLazyPeriod translations.
    for (unsigned pass = 0; pass < OsMemory::kLazyPeriod; ++pass)
        for (int i = 0; i < 64; ++i)
            os_->translate(1, static_cast<Addr>(i) * 4096);
    auto moves = os_->drainLazyMoves();
    EXPECT_EQ(moves.size(), before);
    EXPECT_EQ(os_->nonconformingPages(1), 0u);

    // Charging the moves blocks the involved banks.
    mgr.applyLazyMoves(moves, 2000);
    EXPECT_EQ(mgr.statPagesMigrated.value(), moves.size());
    bool any_blocked = false;
    for (auto &mc : mcs_)
        for (unsigned r = 0; r < kRanks; ++r)
            for (unsigned b = 0; b < kBanks; ++b)
                if (mc->channel().bank(r, b).nextActivate() > 2100)
                    any_blocked = true;
    EXPECT_TRUE(any_blocked);
}

TEST_F(ManagerFixture, LazyRateLimitHonored)
{
    PartitionManager mgr = makeManager("dbp");
    mgr.start();
    for (int i = 0; i < 64; ++i)
        os_->translate(1, static_cast<Addr>(i) * 4096);
    std::vector<ThreadMemProfile> profiles = {
        profile(20, 0.2, 8.0), profile(20, 0.95, 1.0)};
    mgr.onInterval(profiles, 1000);

    // Four periods of touches (32) allow at most 4 moves.
    for (unsigned i = 0; i < 4 * OsMemory::kLazyPeriod; ++i)
        os_->translate(1, static_cast<Addr>(i) * 4096);
    auto moves = os_->drainLazyMoves();
    EXPECT_LE(moves.size(), 4u);
    EXPECT_GE(moves.size(), 1u);
}

} // namespace
} // namespace dbpsim
