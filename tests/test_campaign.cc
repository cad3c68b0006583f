/**
 * @file
 * Campaign-layer tests: the JSON writer's exact bytes (the substrate
 * of the bit-identical gate and of every result digest), the
 * name-derived seeding discipline, the shared in-memory alone-baseline
 * cache, and the headline guarantee — a parallel campaign's results
 * are byte-identical to the serial reference, independent of
 * completion order. Runs under TSan in scripts/check.sh
 * (ctest -R 'Executor|Campaign').
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>

#include "common/json.hh"
#include "sim/campaign.hh"

namespace dbpsim {
namespace {

// ---- JSON -----------------------------------------------------------

TEST(CampaignJson, ScalarsAndAccessors)
{
    EXPECT_TRUE(Json().isNull());
    EXPECT_EQ(Json(true).asBool(), true);
    EXPECT_DOUBLE_EQ(Json(1.5).asDouble(), 1.5);
    EXPECT_EQ(Json(std::int64_t{-7}).asInt(), -7);
    EXPECT_EQ(Json("hi").asString(), "hi");
}

TEST(CampaignJson, ObjectKeepsInsertionOrder)
{
    Json j = Json::object();
    j.set("zebra", 1);
    j.set("apple", 2);
    j.set("mango", 3);
    EXPECT_EQ(j.dump(), "{\"zebra\": 1, \"apple\": 2, \"mango\": 3}");
    j.set("apple", 9); // overwrite keeps the original position.
    EXPECT_EQ(j.dump(), "{\"zebra\": 1, \"apple\": 9, \"mango\": 3}");
}

TEST(CampaignJson, WriterOutputIsExact)
{
    Json j = Json::object();
    j.set("int", std::int64_t{42});
    j.set("neg", -3);
    j.set("frac", 0.1);
    j.set("tiny", 1e-17);
    j.set("big", 1e18);
    j.set("text", "line\n\"quoted\"\t\\\x01");
    Json arr = Json::array();
    arr.push(Json());
    arr.push(false);
    arr.push(2.5);
    j.set("arr", std::move(arr));
    j.set("empty", Json::object());

    EXPECT_EQ(j.dump(),
              R"({"int": 42, "neg": -3, "frac": 0.1, "tiny": 1e-17, )"
              R"("big": 1e+18, "text": "line\n\"quoted\"\t\\\u0001", )"
              R"("arr": [null, false, 2.5], "empty": {}})");
    EXPECT_EQ(j.dump(2), R"({
  "int": 42,
  "neg": -3,
  "frac": 0.1,
  "tiny": 1e-17,
  "big": 1e+18,
  "text": "line\n\"quoted\"\t\\\u0001",
  "arr": [
    null,
    false,
    2.5
  ],
  "empty": {}
})");
}

// ---- seeding discipline ---------------------------------------------

TEST(CampaignSeed, DependsOnNamesNotOrder)
{
    // Same (base, mix, scheme) always gives the same seed...
    EXPECT_EQ(jobSeed(42, "W04", "DBP"), jobSeed(42, "W04", "DBP"));
    // ...and any name or base change gives a different one.
    std::set<std::uint64_t> seeds;
    for (const char *mix : {"W01", "W04", "W10"})
        for (const char *scheme : {"FR-FCFS", "UBP", "DBP"})
            for (std::uint64_t base : {1ULL, 42ULL})
                seeds.insert(jobSeed(base, mix, scheme));
    EXPECT_EQ(seeds.size(), 3u * 3u * 2u);
}

TEST(CampaignSeed, ConfigSignatureTracksHardwareChanges)
{
    RunConfig a;
    RunConfig b;
    EXPECT_EQ(runConfigSignature(a), runConfigSignature(b));
    EXPECT_EQ(runConfigHash(a), runConfigHash(b));
    b.base.geometry.banksPerRank *= 2;
    EXPECT_NE(runConfigSignature(a), runConfigSignature(b));
    EXPECT_NE(runConfigHash(a), runConfigHash(b));
}

// ---- shared fixtures ------------------------------------------------

RunConfig
tinyConfig()
{
    RunConfig rc;
    rc.base.geometry.rowsPerBank = 4096;
    rc.base.profileIntervalCpu = 60'000;
    rc.warmupCpu = 100'000;
    rc.measureCpu = 250'000;
    return rc;
}

/** A fig4-shaped miniature: 2-app mixes x 2 schemes + summary gmeans. */
CampaignSpec
tinySweepSpec()
{
    std::vector<WorkloadMix> mixes = {
        {"T1", {"mcf", "gcc"}},
        {"T2", {"libquantum", "namd"}},
    };
    std::vector<Scheme> schemes = {schemeByName("FR-FCFS"),
                                   schemeByName("DBP")};
    CampaignSpec spec;
    spec.name = "tiny-sweep";
    spec.title = "campaign determinism fixture";
    spec.plan = [mixes, schemes](CampaignPlan &plan,
                                 CampaignContext &ctx) {
        planMixSweep(plan, {ctx.config(), mixes, schemes});
    };
    spec.render = [mixes, schemes](CampaignRun &run, std::ostream &os) {
        printSweepMetric(run, {run.config(), mixes, schemes}, "ws",
                         "weighted speedup", os);
    };
    return spec;
}

// ---- baseline cache -------------------------------------------------

TEST(CampaignBaselines, ComputesOncePerApp)
{
    AloneBaselineCache cache;
    RunConfig rc = tinyConfig();
    AloneBaseline first = cache.get(rc, "gcc");
    EXPECT_GT(first.ipc, 0.0);
    AloneBaseline again = cache.get(rc, "gcc");
    EXPECT_DOUBLE_EQ(again.ipc, first.ipc);
    EXPECT_EQ(cache.computeCount(), 1u);
}

TEST(CampaignBaselines, DistinctConfigsGetDistinctEntries)
{
    AloneBaselineCache cache;
    RunConfig rc = tinyConfig();
    cache.get(rc, "gcc");
    RunConfig other = rc;
    other.base.geometry.banksPerRank *= 2;
    cache.get(other, "gcc");
    EXPECT_EQ(cache.computeCount(), 2u);
}

// ---- campaign execution ---------------------------------------------

TEST(Campaign, RegistryFindsRegisteredSpecs)
{
    CampaignSpec spec = tinySweepSpec();
    spec.name = "test-registry-entry";
    registerCampaign(spec);
    const CampaignSpec *found = findCampaign("test-registry-entry");
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->title, spec.title);
    EXPECT_EQ(findCampaign("no-such-campaign"), nullptr);

    // Natural ordering: fig2 sorts before fig10.
    registerCampaign({"zz2", "", "", spec.plan, spec.render});
    registerCampaign({"zz10", "", "", spec.plan, spec.render});
    auto all = campaignRegistry();
    std::size_t i2 = all.size(), i10 = all.size();
    for (std::size_t i = 0; i < all.size(); ++i) {
        if (all[i]->name == "zz2")
            i2 = i;
        if (all[i]->name == "zz10")
            i10 = i;
    }
    EXPECT_LT(i2, i10);
}

TEST(Campaign, ParallelRunIsBitIdenticalToSerial)
{
    RunConfig rc = tinyConfig();
    CampaignSpec spec = tinySweepSpec();
    auto baselines = std::make_shared<AloneBaselineCache>();

    CampaignOptions serial;
    serial.jobs = 1;
    serial.progress = false;
    std::ostringstream serial_out;
    Json ref = runCampaign(spec, rc, baselines, serial, serial_out);

    CampaignOptions parallel;
    parallel.jobs = 8;
    parallel.progress = false;
    for (int repeat = 0; repeat < 2; ++repeat) {
        std::ostringstream par_out;
        Json doc = runCampaign(spec, rc, baselines, parallel, par_out);
        // The deterministic sections are byte-identical; only the
        // timing fields may differ between runs.
        EXPECT_EQ(doc.at("jobs").dump(), ref.at("jobs").dump());
        EXPECT_EQ(doc.at("summary").dump(), ref.at("summary").dump());
        EXPECT_EQ(par_out.str(), serial_out.str());
    }
}

TEST(Campaign, ResultDocumentHasTheContractFields)
{
    RunConfig rc = tinyConfig();
    auto baselines = std::make_shared<AloneBaselineCache>();
    CampaignOptions opts;
    opts.jobs = 2;
    opts.progress = false;
    std::ostringstream os;
    Json doc = runCampaign(tinySweepSpec(), rc, baselines, opts, os);

    EXPECT_EQ(doc.at("campaign").asString(), "tiny-sweep");
    EXPECT_EQ(doc.at("jobs_count").asUInt(), 4u);
    EXPECT_EQ(doc.at("jobs").size(), 4u);
    EXPECT_EQ(doc.at("parallelism").asUInt(), 2u);
    EXPECT_GE(doc.at("wall_seconds").asDouble(), 0.0);
    EXPECT_GE(doc.at("job_seconds_total").asDouble(), 0.0);
    EXPECT_FALSE(doc.at("config").at("hash").asString().empty());

    const Json &job = doc.at("jobs").at("T1/DBP");
    EXPECT_EQ(job.at("mix").asString(), "T1");
    EXPECT_EQ(job.at("scheme").asString(), "DBP");
    EXPECT_GT(job.at("ws").asDouble(), 0.0);
    EXPECT_EQ(job.at("speedups").size(), 2u);

    const Json &summary = doc.at("summary");
    EXPECT_GT(summary.at("gmean_ws_DBP").asDouble(), 0.0);
}

TEST(Campaign, DuplicateJobKeysAreFatal)
{
    CampaignPlan plan;
    plan.add("a", [](CampaignContext &) { return Json(); });
    EXPECT_DEATH(plan.add("a", [](CampaignContext &) { return Json(); }),
                 "duplicate");
}

} // namespace
} // namespace dbpsim
