/**
 * @file
 * Tests of the benchmark's own arithmetic: self time under nested
 * spans, the gmean ratio formulas, the duplicate-job detector, the
 * per-job result checks and the reference-normalized host times.
 */

#include <gtest/gtest.h>

#include "reference.hh"
#include "tracer.hh"
#include "workloads.hh"

namespace hostbench {
namespace {

TEST(LayerTimes, SelfTimeSubtractsNestedLayers)
{
    LayerTimes t;
    t.add(Layer::Core, 1000);
    t.add(Layer::Core, 500);
    // 32 translate calls, 2 of them timed at 10 ns: estimate 320 ns.
    for (int i = 0; i < 32; ++i)
        if (t.sampleCall(Layer::OsTranslate))
            t.addSample(Layer::OsTranslate, 10);
    for (int i = 0; i < 16; ++i)
        if (t.sampleCall(Layer::MemEnqueue))
            t.addSample(Layer::MemEnqueue, 5);
    t.add(Layer::Controller, 300);
    for (int i = 0; i < 3; ++i)
        if (t.sampleCall(Layer::CheckOnCommand))
            t.addSample(Layer::CheckOnCommand, 40);

    EXPECT_DOUBLE_EQ(t.inclusiveNs(Layer::OsTranslate), 320.0);
    EXPECT_DOUBLE_EQ(t.inclusiveNs(Layer::MemEnqueue), 80.0);
    EXPECT_DOUBLE_EQ(t.selfNs(Layer::Core), 1500.0 - 320.0 - 80.0);
    EXPECT_DOUBLE_EQ(t.selfNs(Layer::Controller), 300.0 - 120.0);
    EXPECT_DOUBLE_EQ(t.selfNs(Layer::OsTranslate), 320.0);
    // Nested layers are inside their parents: counted once.
    EXPECT_DOUBLE_EQ(t.attributedNs(), 1800.0);
    EXPECT_EQ(t.calls(Layer::OsTranslate), 32u);

    LayerTimes sum = t;
    sum += t;
    EXPECT_DOUBLE_EQ(sum.selfNs(Layer::Core), 2.0 * t.selfNs(Layer::Core));
}

TEST(LayerTimes, SelfTimeNeverNegative)
{
    LayerTimes t;
    t.add(Layer::Controller, 10);
    t.sampleCall(Layer::CheckOnCommand);
    t.addSample(Layer::CheckOnCommand, 25);
    EXPECT_DOUBLE_EQ(t.selfNs(Layer::Controller), 0.0);
}

TEST(SpanSelfTimes, SubtractsCoveredPartOfChildren)
{
    std::vector<Span> spans = {
        {0, "job", 0, 100, -1},
        {0, "warmup", 10, 30, 0},
        {0, "measure", 20, 50, 0}, // overlaps warmup: covered once.
        {0, "interval", 12, 15, 1},
        {0, "stray", 90, 120, 0}, // clipped to the parent's end.
        {1, "other", 0, 7, -1},
    };
    std::vector<std::int64_t> self = spanSelfTimes(spans);
    ASSERT_EQ(self.size(), spans.size());
    EXPECT_EQ(self[0], 100 - 40 - 10);
    EXPECT_EQ(self[1], 20 - 3);
    EXPECT_EQ(self[2], 30);
    EXPECT_EQ(self[3], 3);
    EXPECT_EQ(self[5], 7);
}

TEST(GmeanRatio, PercentOfBase)
{
    EXPECT_DOUBLE_EQ(gmeanRatioPct({1.0, 4.0}, {2.0, 8.0}), 200.0);
    EXPECT_DOUBLE_EQ(gmeanRatioPct({3.0, 5.0}, {3.0, 5.0}), 100.0);
    // DBP's max slowdown 10 % below UBP's on every mix reads 90 %.
    EXPECT_NEAR(gmeanRatioPct({2.0, 4.0, 8.0}, {1.8, 3.6, 7.2}), 90.0,
                1e-9);
}

TEST(DuplicateJobDetector, CountsRepeatsAndMismatches)
{
    DuplicateJobDetector d;
    EXPECT_FALSE(d.record(1, "W01/DBP", "{\"ws\":1}"));
    EXPECT_FALSE(d.record(1, "W01/UBP", "{\"ws\":1}"));
    EXPECT_TRUE(d.record(1, "W01/DBP", "{\"ws\":1}"));
    EXPECT_EQ(d.mismatches(), 0u);
    EXPECT_TRUE(d.record(1, "W01/DBP", "{\"ws\":2}"));
    EXPECT_EQ(d.mismatches(), 1u);
    // Same key on another configuration is a different job.
    EXPECT_FALSE(d.record(2, "W01/DBP", "{\"ws\":3}"));
    EXPECT_EQ(d.duplicates(), 2u);
}

RepResult
pass(std::vector<StageTime> stages, double ref_after)
{
    RepResult rep;
    rep.stages = std::move(stages);
    rep.refAfter = ref_after;
    return rep;
}

TEST(NormalizedTotal, CancelsHostSpeed)
{
    // Stage 0 takes 2 reference runs, stage 1 takes 10 (the reference
    // runs on either side of it average 0.02 s).
    RepResult fast = pass({{0.02, 0.02, 0.01}, {0.2, 0.2, 0.01}}, 0.03);
    EXPECT_DOUBLE_EQ(refAround(fast, 0), 0.01);
    EXPECT_DOUBLE_EQ(refAround(fast, 1), 0.02);
    const double expect = 12.0 * kReferenceNominalS;
    EXPECT_NEAR(normalizedTotal({fast}, &StageTime::wall), expect, 1e-12);

    // The same pass on a host twice as slow normalizes the same, and a
    // stage slowed by an outlier pass does not move the median of three.
    RepResult slow = pass({{0.04, 0.04, 0.02}, {0.4, 0.4, 0.02}}, 0.06);
    RepResult burst = pass({{0.02, 0.02, 0.01}, {0.9, 0.9, 0.01}}, 0.03);
    EXPECT_NEAR(normalizedTotal({fast, slow, burst}, &StageTime::cpu),
                expect, 1e-12);
}

TEST(Median, OddAndEvenCounts)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

dbpsim::Json
jobJson(double ws, std::int64_t violations)
{
    dbpsim::Json alone = dbpsim::Json::array();
    alone.push(1.0);
    alone.push(2.0);
    dbpsim::Json shared = dbpsim::Json::array();
    shared.push(0.5);
    shared.push(1.0);
    dbpsim::Json j = dbpsim::Json::object();
    j.set("ws", ws);
    j.set("ms", 2.0);
    j.set("alone_ipc", alone);
    j.set("shared_ipc", shared);
    j.set("check_violations", violations);
    return j;
}

TEST(CheckJobResult, AcceptsConsistentAndRejectsBroken)
{
    EXPECT_EQ(checkJobResult(jobJson(1.0, -1)), "");
    EXPECT_EQ(checkJobResult(jobJson(1.0, 0)), "");
    EXPECT_NE(checkJobResult(jobJson(1.0, 3)), "");
    EXPECT_NE(checkJobResult(jobJson(1.2, -1)), "");
}

} // namespace
} // namespace hostbench
