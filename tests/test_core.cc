/**
 * @file
 * Trace-driven core tests against a scriptable fake memory interface:
 * peak IPC on compute-only traces, head-of-window load stalls, MSHR
 * limiting and merging, window-order issue across refusals,
 * out-of-order completion, store-buffer backpressure, and compute
 * bubbles at the window head pinned tick by tick (window refills,
 * loads and stores behind the bubble, every bubble length modulo the
 * issue width, refused and MSHR-starved loads behind it).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>
#include <set>

#include "core/core.hh"

namespace dbpsim {
namespace {

/** Trace source emitting a fixed pattern repeatedly. */
class ScriptedSource : public TraceSource
{
  public:
    explicit ScriptedSource(std::vector<TraceRecord> pattern)
        : pattern_(std::move(pattern))
    {
    }

    TraceRecord
    next() override
    {
        TraceRecord r = pattern_[pos_];
        pos_ = (pos_ + 1) % pattern_.size();
        return r;
    }

    void reset() override { pos_ = 0; }
    std::string name() const override { return "scripted"; }

  private:
    std::vector<TraceRecord> pattern_;
    std::size_t pos_ = 0;
};

/** Memory interface with controllable accept/complete behaviour. */
class FakeMemory : public CoreMemoryInterface
{
  public:
    bool
    issueLoad(ThreadId, Addr vaddr, MemClient *client,
              std::uint64_t tag) override
    {
        if (!acceptLoads) {
            ++loadsRefused;
            return false;
        }
        loadLog.push_back(vaddr);
        pending.push_back({vaddr, client, tag});
        return true;
    }

    bool
    issueStore(ThreadId, Addr) override
    {
        if (!acceptStores)
            return false;
        ++storesAccepted;
        return true;
    }

    /** Complete every pending load. */
    void
    completeAll()
    {
        auto batch = pending;
        pending.clear();
        for (auto &p : batch)
            p.client->readComplete(p.tag);
    }

    /** Complete the @p i-th oldest pending load. */
    void
    complete(std::size_t i)
    {
        Pending p = pending.at(i);
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
        p.client->readComplete(p.tag);
    }

    struct Pending
    {
        Addr vaddr;
        MemClient *client;
        std::uint64_t tag;
    };
    std::vector<Pending> pending;
    std::vector<Addr> loadLog; ///< every accepted load, in order.
    bool acceptLoads = true;
    bool acceptStores = true;
    std::uint64_t storesAccepted = 0;
    std::uint64_t loadsRefused = 0; ///< issueLoad calls refused.
};

CoreParams
coreParams()
{
    CoreParams p;
    p.windowSize = 32;
    p.issueWidth = 4;
    p.mshrs = 4;
    p.storeBufferSize = 2;
    return p;
}

TEST(Core, ComputeOnlyRunsAtIssueWidth)
{
    // One load every 10k instructions: effectively compute bound.
    ScriptedSource src({{9999, 0x0, false}});
    FakeMemory mem;
    TraceCore core(0, coreParams(), &src, &mem);

    for (int i = 0; i < 1000; ++i) {
        core.tick();
        mem.completeAll();
    }
    double ipc = static_cast<double>(core.instructionsRetired()) / 1000;
    EXPECT_NEAR(ipc, 4.0, 0.2);
}

TEST(Core, StallsOnHeadLoadUntilCompletion)
{
    // Loads back to back, memory never completes.
    ScriptedSource src({{0, 0x0, false}});
    FakeMemory mem;
    TraceCore core(0, coreParams(), &src, &mem);

    for (int i = 0; i < 100; ++i)
        core.tick();
    // Nothing can retire: the head load never completed.
    EXPECT_EQ(core.instructionsRetired(), 0u);
    EXPECT_GT(core.statHeadStalls.value(), 0u);

    mem.completeAll();
    core.tick();
    EXPECT_GT(core.instructionsRetired(), 0u);
}

TEST(Core, MshrLimitBoundsOutstanding)
{
    // Distinct lines, no completion: outstanding == mshr count.
    std::vector<TraceRecord> pat;
    for (int i = 0; i < 64; ++i)
        pat.push_back({0, static_cast<Addr>(i) * 64, false});
    ScriptedSource src(pat);
    FakeMemory mem;
    TraceCore core(0, coreParams(), &src, &mem);

    for (int i = 0; i < 50; ++i)
        core.tick();
    EXPECT_EQ(core.outstandingLoads(), 4u);
    EXPECT_GT(core.statMshrStalls.value(), 0u);
}

TEST(Core, MshrMergesSameLine)
{
    // Two loads to the same line then distinct ones.
    std::vector<TraceRecord> pat = {
        {0, 0x100, false}, {0, 0x120, false}, // same 64B line.
        {0, 0x1000, false},
    };
    ScriptedSource src(pat);
    FakeMemory mem;
    TraceCore core(0, coreParams(), &src, &mem);

    core.tick();
    EXPECT_GT(core.statMshrMerges.value(), 0u);
    // Merged load consumed no extra memory request.
    EXPECT_LT(mem.loadLog.size(), 3u + core.statMshrMerges.value());

    // Completion wakes all merged waiters: both retire.
    mem.completeAll();
    for (int i = 0; i < 10; ++i) {
        core.tick();
        mem.completeAll();
    }
    EXPECT_GE(core.instructionsRetired(), 2u);
}

TEST(Core, IssuesLoadsInWindowOrderAcrossRefusals)
{
    // Distinct lines between bubbles and stores. Memory refuses in
    // bursts while completions trickle in, out of order, so issue
    // keeps stopping and resuming mid-window.
    std::vector<TraceRecord> pat;
    std::vector<Addr> loads;
    for (unsigned i = 0; i < 512; ++i) {
        const Addr line = static_cast<Addr>(i + 1) * 64;
        const bool write = i % 5 == 4;
        pat.push_back({i % 3, line, write});
        if (!write)
            loads.push_back(line);
    }
    ScriptedSource src(pat);
    FakeMemory mem;
    TraceCore core(0, coreParams(), &src, &mem);

    for (unsigned t = 0; t < 600; ++t) {
        mem.acceptLoads = t >= 10 && (t / 7) % 3 != 0;
        core.tick();
        if (t % 2 == 0 && !mem.pending.empty())
            mem.complete(t % mem.pending.size());
    }

    // Loads reach memory in window order, none twice.
    ASSERT_GT(mem.loadLog.size(), 40u);
    ASSERT_LT(mem.loadLog.size(), loads.size());
    loads.resize(mem.loadLog.size());
    EXPECT_EQ(mem.loadLog, loads);
    EXPECT_GT(core.statMshrStalls.value(), 0u);
    EXPECT_GT(core.instructionsRetired(), 40u);
}

TEST(Core, OutOfOrderCompletionWakesOnlyItsLoad)
{
    // Distinct lines and two MSHRs: two loads outstanding.
    std::vector<TraceRecord> pat;
    for (unsigned i = 0; i < 64; ++i)
        pat.push_back({0, static_cast<Addr>(i + 1) * 64, false});
    ScriptedSource src(pat);
    FakeMemory mem;
    CoreParams params = coreParams();
    params.mshrs = 2;
    TraceCore core(0, params, &src, &mem);

    core.tick();
    ASSERT_EQ(mem.pending.size(), 2u);
    ASSERT_EQ(mem.pending[0].vaddr, 64u);
    ASSERT_EQ(mem.pending[1].vaddr, 128u);

    // The younger load's data leaves the head load waiting.
    mem.complete(1);
    const std::uint64_t stalls = core.statHeadStalls.value();
    for (int i = 0; i < 5; ++i)
        core.tick();
    EXPECT_EQ(core.instructionsRetired(), 0u);
    EXPECT_EQ(core.statHeadStalls.value(), stalls + 5);

    // The older one's data retires both; the next load is outstanding.
    mem.complete(0);
    core.tick();
    EXPECT_EQ(core.instructionsRetired(), 2u);
}

TEST(Core, StoresDrainThroughBuffer)
{
    ScriptedSource src({{3, 0x40, true}});
    FakeMemory mem;
    TraceCore core(0, coreParams(), &src, &mem);

    for (int i = 0; i < 100; ++i)
        core.tick();
    EXPECT_GT(mem.storesAccepted, 10u);
    EXPECT_GT(core.instructionsRetired(), 100u);
}

TEST(Core, StoreBufferBackpressureStalls)
{
    // Stores only, memory rejects them: buffer (2) fills, retire stops.
    ScriptedSource src({{0, 0x40, true}});
    FakeMemory mem;
    mem.acceptStores = false;
    TraceCore core(0, coreParams(), &src, &mem);

    for (int i = 0; i < 100; ++i)
        core.tick();
    EXPECT_EQ(core.instructionsRetired(), 2u); // two buffered stores.
    EXPECT_GT(core.statStoreStalls.value(), 0u);

    mem.acceptStores = true;
    for (int i = 0; i < 100; ++i)
        core.tick();
    EXPECT_GT(core.instructionsRetired(), 10u);
}

TEST(Core, RejectedLoadsRetryUntilAccepted)
{
    ScriptedSource src({{0, 0x40, false}});
    FakeMemory mem;
    mem.acceptLoads = false;
    TraceCore core(0, coreParams(), &src, &mem);

    for (int i = 0; i < 10; ++i)
        core.tick();
    EXPECT_TRUE(mem.loadLog.empty());
    EXPECT_EQ(core.instructionsRetired(), 0u);

    mem.acceptLoads = true;
    core.tick();
    EXPECT_FALSE(mem.loadLog.empty());
}

TEST(Core, WindowOccupancyBounded)
{
    ScriptedSource src({{2, 0x40, false}});
    FakeMemory mem;
    TraceCore core(0, coreParams(), &src, &mem);
    core.tick();
    // The tick fetched to (at least) the window size, then retired up
    // to issueWidth; a single record can overshoot by its own length.
    EXPECT_GE(core.windowOccupancy(), 32u - 4u);
    EXPECT_LE(core.windowOccupancy(), 32u + 3u);
}

TEST(Core, LineAlignsAddresses)
{
    ScriptedSource src({{0, 0x7f, false}}); // unaligned vaddr.
    FakeMemory mem;
    TraceCore core(0, coreParams(), &src, &mem);
    core.tick();
    ASSERT_FALSE(mem.pending.empty());
    EXPECT_EQ(mem.pending[0].vaddr, 0x40u);
}

TEST(Core, DeterministicAcrossRuns)
{
    auto run = [] {
        ScriptedSource src({{5, 0x40, false}, {2, 0x80, true}});
        FakeMemory mem;
        TraceCore core(0, coreParams(), &src, &mem);
        for (int i = 0; i < 200; ++i) {
            core.tick();
            if (i % 3 == 0)
                mem.completeAll();
        }
        return core.instructionsRetired();
    };
    EXPECT_EQ(run(), run());
}

// The three head-stalled shapes: each stalled tick counts exactly one
// head stall, plus one MSHR stall while the MSHR file is full, and
// the tick after a completion retires.

TEST(Core, HeadStallWithEveryLoadIssuedCountsPerTick)
{
    // One line: the first load takes an MSHR, the rest merge into it.
    ScriptedSource src({{0, 0x0, false}});
    FakeMemory mem;
    TraceCore core(0, coreParams(), &src, &mem);
    for (std::uint64_t i = 1; i <= 50; ++i) {
        core.tick();
        ASSERT_EQ(core.statHeadStalls.value(), i);
        ASSERT_EQ(core.statMshrStalls.value(), 0u);
    }
    EXPECT_EQ(mem.loadLog.size(), 1u);
    EXPECT_EQ(core.instructionsRetired(), 0u);

    mem.completeAll();
    core.tick();
    EXPECT_EQ(core.instructionsRetired(), coreParams().issueWidth);
    EXPECT_EQ(core.statHeadStalls.value(), 50u);
}

TEST(Core, HeadStallWithFullMshrsCountsBothPerTick)
{
    // Distinct lines: four MSHRs fill, the fifth load waits for one.
    std::vector<TraceRecord> pat;
    for (int i = 0; i < 64; ++i)
        pat.push_back({0, static_cast<Addr>(i) * 64, false});
    ScriptedSource src(pat);
    FakeMemory mem;
    TraceCore core(0, coreParams(), &src, &mem);
    for (std::uint64_t i = 1; i <= 50; ++i) {
        core.tick();
        ASSERT_EQ(core.statHeadStalls.value(), i);
        ASSERT_EQ(core.statMshrStalls.value(), i);
    }
    EXPECT_EQ(mem.loadLog.size(), 4u);

    mem.complete(0); // the head's line.
    core.tick();
    EXPECT_EQ(core.instructionsRetired(), 1u);
    EXPECT_EQ(mem.loadLog.size(), 5u); // the freed MSHR is reused.
}

TEST(Core, RefusedLoadIsRetriedEveryTick)
{
    std::vector<TraceRecord> pat;
    for (int i = 0; i < 64; ++i)
        pat.push_back({0, static_cast<Addr>(i) * 64, false});
    ScriptedSource src(pat);
    FakeMemory mem;
    mem.acceptLoads = false;
    TraceCore core(0, coreParams(), &src, &mem);
    for (std::uint64_t i = 1; i <= 50; ++i) {
        core.tick();
        ASSERT_EQ(mem.loadsRefused, i);
        ASSERT_EQ(core.statHeadStalls.value(), i);
        ASSERT_EQ(core.statMshrStalls.value(), 0u);
    }

    mem.acceptLoads = true;
    core.tick();
    EXPECT_EQ(mem.loadsRefused, 50u);
    EXPECT_EQ(mem.loadLog.size(), 4u);
    mem.completeAll();
    core.tick();
    EXPECT_EQ(core.instructionsRetired(), 4u);
}

// Compute bubbles at the window head, tick by tick. Every expectation
// is worked out by hand from the four steps of a tick: fetch tops the
// window up to windowSize instructions a whole record at a time, loads
// issue in window order, retire takes up to issueWidth instructions
// from the head, and one buffered store drains.

/** What a tick leaves visible, on the core and in memory. */
struct Seen
{
    InstCount retired = 0;
    std::uint64_t occupancy = 0;  ///< windowOccupancy().
    std::uint64_t headStalls = 0;
    std::uint64_t mshrStalls = 0;
    std::uint64_t refused = 0;    ///< FakeMemory::loadsRefused.
    std::size_t loads = 0;        ///< loads memory accepted so far.
    std::uint64_t stores = 0;     ///< stores memory accepted so far.

    bool operator==(const Seen &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const Seen &s)
{
    return os << "{retired " << s.retired << ", occupancy " << s.occupancy
              << ", head stalls " << s.headStalls << ", mshr stalls "
              << s.mshrStalls << ", refused " << s.refused << ", loads "
              << s.loads << ", stores " << s.stores << "}";
}

Seen
seen(const TraceCore &core, const FakeMemory &mem)
{
    return {core.instructionsRetired(), core.windowOccupancy(),
            core.statHeadStalls.value(), core.statMshrStalls.value(),
            mem.loadsRefused, mem.loadLog.size(), mem.storesAccepted};
}

/**
 * Ticks @p core once per row of @p rows and compares what each tick
 * leaves with its row; @p after(t) runs after tick t's comparison.
 */
template <typename After>
void
expectTicks(TraceCore &core, const FakeMemory &mem,
            const std::vector<Seen> &rows, After after)
{
    for (std::size_t t = 1; t <= rows.size(); ++t) {
        core.tick();
        ASSERT_EQ(seen(core, mem), rows[t - 1]) << "after tick " << t;
        after(t);
    }
}

TEST(Core, BubbleLongerThanWindowRetiresAtFullWidth)
{
    // 40-instruction bubbles against a 16-instruction window. Each
    // record's load issues on the tick fetch brings it in: tick 1,
    // then ticks 8 and 18, which start with fewer than 16 instructions
    // in the window.
    // Load A completes during the first bubble and retires on tick 11
    // without a stall; load B never does, so head stalls start on
    // tick 21, the tick the second bubble's last instruction retires.
    ScriptedSource src({{40, 0x1000, false}, {40, 0x2000, false},
                        {40, 0x3000, false}});
    FakeMemory mem;
    CoreParams params = coreParams();
    params.windowSize = 16;
    TraceCore core(0, params, &src, &mem);

    // retired, occupancy, head stalls, mshr stalls, refused, loads,
    // stores.
    expectTicks(core, mem,
                {{4, 37, 0, 0, 0, 1, 0},  {8, 33, 0, 0, 0, 1, 0},
                 {12, 29, 0, 0, 0, 1, 0}, {16, 25, 0, 0, 0, 1, 0},
                 {20, 21, 0, 0, 0, 1, 0}, {24, 17, 0, 0, 0, 1, 0},
                 {28, 13, 0, 0, 0, 1, 0}, {32, 50, 0, 0, 0, 2, 0},
                 {36, 46, 0, 0, 0, 2, 0}, {40, 42, 0, 0, 0, 2, 0},
                 {44, 38, 0, 0, 0, 2, 0}, {48, 34, 0, 0, 0, 2, 0},
                 {52, 30, 0, 0, 0, 2, 0}, {56, 26, 0, 0, 0, 2, 0},
                 {60, 22, 0, 0, 0, 2, 0}, {64, 18, 0, 0, 0, 2, 0},
                 {68, 14, 0, 0, 0, 2, 0}, {72, 51, 0, 0, 0, 3, 0},
                 {76, 47, 0, 0, 0, 3, 0}, {80, 43, 0, 0, 0, 3, 0},
                 {81, 42, 1, 0, 0, 3, 0}, {81, 42, 2, 0, 0, 3, 0},
                 {81, 42, 3, 0, 0, 3, 0}},
                [&](std::size_t t) {
                    if (t == 5)
                        mem.complete(0); // load A.
                });
}

TEST(Core, StoreBehindBubbleEntersBufferWhenBubbleEnds)
{
    // 41-instruction bubbles: the last instruction of the first one
    // retires on tick 11 with the store behind it. Memory refuses
    // stores until tick 16, so the store waits in the buffer through
    // ticks 11-15 while the next bubble retires at full width. The
    // second store enters the buffer on tick 21 and drains on it.
    ScriptedSource src({{41, 0x1000, true}, {41, 0x2000, true},
                        {41, 0x3000, true}});
    FakeMemory mem;
    mem.acceptStores = false;
    CoreParams params = coreParams();
    params.windowSize = 16;
    TraceCore core(0, params, &src, &mem);

    expectTicks(core, mem,
                {{4, 38, 0, 0, 0, 0, 0},  {8, 34, 0, 0, 0, 0, 0},
                 {12, 30, 0, 0, 0, 0, 0}, {16, 26, 0, 0, 0, 0, 0},
                 {20, 22, 0, 0, 0, 0, 0}, {24, 18, 0, 0, 0, 0, 0},
                 {28, 14, 0, 0, 0, 0, 0}, {32, 52, 0, 0, 0, 0, 0},
                 {36, 48, 0, 0, 0, 0, 0}, {40, 44, 0, 0, 0, 0, 0},
                 {44, 40, 0, 0, 0, 0, 0}, {48, 36, 0, 0, 0, 0, 0},
                 {52, 32, 0, 0, 0, 0, 0}, {56, 28, 0, 0, 0, 0, 0},
                 {60, 24, 0, 0, 0, 0, 0}, {64, 20, 0, 0, 0, 0, 1},
                 {68, 16, 0, 0, 0, 0, 1}, {72, 12, 0, 0, 0, 0, 1},
                 {76, 50, 0, 0, 0, 0, 1}, {80, 46, 0, 0, 0, 0, 1},
                 {84, 42, 0, 0, 0, 0, 2}},
                [&](std::size_t t) {
                    if (t == 15)
                        mem.acceptStores = true;
                });
    EXPECT_EQ(core.statStoreStalls.value(), 0u);
}

TEST(Core, BubblesOfEveryLengthModuloIssueWidth)
{
    // Records of a G-instruction bubble and a load to a line of its
    // own; memory accepts every load and completes it after the tick
    // that issued it. Only the first load can reach the head on the
    // tick it issues: every later one enters behind at least
    // windowSize - 1 > W instructions. It does so exactly when G < W,
    // so after tick t the core has retired min(G, W) + W(t - 1)
    // instructions with one head stall iff G < W. Fetch adds whole
    // records of G + 1 instructions until the window holds 16, so by
    // the end of tick t it has fetched the least multiple of G + 1 that
    // is at least 16 + retired(t - 1), one load per record.
    constexpr std::uint64_t window = 16;
    for (std::uint32_t width : {1u, 3u, 4u}) {
        std::set<std::uint32_t> gaps = {1, width - 1, width, 10 * width,
                                        10 * width + 1};
        gaps.erase(0);
        for (std::uint32_t gap : gaps) {
            SCOPED_TRACE(testing::Message()
                         << "width " << width << ", bubble " << gap);
            std::vector<TraceRecord> pat;
            for (unsigned i = 0; i < 64; ++i)
                pat.push_back({gap, static_cast<Addr>(i + 1) * 64, false});
            ScriptedSource src(pat);
            FakeMemory mem;
            CoreParams params = coreParams();
            params.windowSize = window;
            params.issueWidth = width;
            params.mshrs = 32;
            TraceCore core(0, params, &src, &mem);

            const std::uint64_t record = gap + 1;
            InstCount retired = 0;
            for (std::uint64_t t = 1; t <= 60; ++t) {
                const std::uint64_t fetched =
                    record * ((window + retired + record - 1) / record);
                retired = std::min(gap, width) + width * (t - 1);
                core.tick();
                const Seen want{retired, fetched - retired,
                                gap < width ? 1u : 0u, 0, 0,
                                fetched / record, 0};
                ASSERT_EQ(seen(core, mem), want) << "after tick " << t;
                mem.completeAll();
            }
        }
    }
}

TEST(Core, RefusedLoadBehindBubbleIsRetriedEveryTick)
{
    // Memory refuses load A through tick 9, so every tick retries it
    // while the bubble ahead of it retires; load B behind it is not
    // tried. Both issue on tick 10 and complete after it.
    ScriptedSource src({{40, 0x1000, false}, {40, 0x2000, false},
                        {40, 0x3000, false}});
    FakeMemory mem;
    mem.acceptLoads = false;
    CoreParams params = coreParams();
    params.windowSize = 16;
    TraceCore core(0, params, &src, &mem);

    expectTicks(core, mem,
                {{4, 37, 0, 0, 1, 0, 0},  {8, 33, 0, 0, 2, 0, 0},
                 {12, 29, 0, 0, 3, 0, 0}, {16, 25, 0, 0, 4, 0, 0},
                 {20, 21, 0, 0, 5, 0, 0}, {24, 17, 0, 0, 6, 0, 0},
                 {28, 13, 0, 0, 7, 0, 0}, {32, 50, 0, 0, 8, 0, 0},
                 {36, 46, 0, 0, 9, 0, 0}, {40, 42, 0, 0, 9, 2, 0},
                 {44, 38, 0, 0, 9, 2, 0}, {48, 34, 0, 0, 9, 2, 0}},
                [&](std::size_t t) {
                    if (t == 9)
                        mem.acceptLoads = true;
                    if (t == 10)
                        mem.completeAll();
                });
}

TEST(Core, LoadWaitingOnFullMshrsBehindBubbleCountsEveryTick)
{
    // One MSHR. The 48-instruction window takes both records on tick
    // 1: load A takes the MSHR and load B, behind the second bubble,
    // waits for it on every tick until A completes after tick 4.
    ScriptedSource src({{40, 0x1000, false}, {200, 0x2000, false}});
    FakeMemory mem;
    CoreParams params = coreParams();
    params.windowSize = 48;
    params.mshrs = 1;
    TraceCore core(0, params, &src, &mem);

    expectTicks(core, mem,
                {{4, 238, 0, 1, 0, 1, 0},  {8, 234, 0, 2, 0, 1, 0},
                 {12, 230, 0, 3, 0, 1, 0}, {16, 226, 0, 4, 0, 1, 0},
                 {20, 222, 0, 4, 0, 2, 0}, {24, 218, 0, 4, 0, 2, 0},
                 {28, 214, 0, 4, 0, 2, 0}, {32, 210, 0, 4, 0, 2, 0},
                 {36, 206, 0, 4, 0, 2, 0}, {40, 202, 0, 4, 0, 2, 0},
                 {44, 198, 0, 4, 0, 2, 0}, {48, 194, 0, 4, 0, 2, 0}},
                [&](std::size_t t) {
                    if (t == 4)
                        mem.complete(0); // load A.
                });
}

} // namespace
} // namespace dbpsim
