/**
 * @file
 * Trace-driven core tests against a scriptable fake memory interface:
 * peak IPC on compute-only traces, head-of-window load stalls, MSHR
 * limiting and merging, window-order issue across refusals,
 * out-of-order completion, and store-buffer backpressure.
 */

#include <gtest/gtest.h>

#include <map>

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

} // namespace
} // namespace dbpsim
