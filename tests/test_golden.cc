/**
 * @file
 * Golden digests: one pinned result digest per registered campaign.
 *
 * Each case replicates
 *
 *   dbpsim_bench <campaign> --jobs=16
 *       warmup=20000 measure=40000 interval=10000 seed=42 check=1
 *
 * and compares the campaign's "result digest" (the hash over its jobs
 * and summary JSON) against the value recorded here. The window is
 * tiny but long enough for DBP to repartition and migrate pages, so a
 * refactor that moves a single simulated cycle anywhere in the
 * simulator shows up as a digest change. A behaviour change that is
 * meant to move results re-pins the affected rows and says so.
 *
 * Each case runs on 16 workers with a fresh in-memory alone-baseline
 * cache, so every pin also checks that results do not depend on the
 * worker count: the pins are the `--serial` digests, and a job that
 * read state another job computes in parallel (such as an alone
 * baseline under a key that misses a hardware field) would make the
 * digest depend on completion order. The checker is on explicitly
 * (check=1), so a DBPSIM_CHECK build pins the same value as a default
 * build.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sim/campaign.hh"

namespace dbpsim {
namespace {

struct DigestPin
{
    const char *campaign;
    std::uint64_t digest;
};

const std::vector<DigestPin> &
pins()
{
    static const std::vector<DigestPin> v = {
        {"fig1", 0x32cf87d4b5241231ULL},
        {"fig2", 0x5a8747bb6ae2c667ULL},
        {"fig3", 0x924dc8816b721463ULL},
        {"fig4", 0x4532e75788acacaaULL},
        {"fig5", 0x50f55b5c598d3351ULL},
        {"fig6", 0x807ff29075f8c90bULL},
        {"fig7", 0x1bf5970ea02a98ddULL},
        {"fig8", 0x6f59486640d932a7ULL},
        {"fig9", 0x60c7b020158388dbULL},
        {"fig10", 0x08b4ada622286bc2ULL},
        {"fig11", 0xa48430e6e227a606ULL},
        {"fig12", 0xee570834ba17fa45ULL},
        {"fig13", 0x79d0e0cf080bc716ULL},
        {"fig14", 0x931dc9c6221a6569ULL},
        {"fig15", 0x6a224158c7aea974ULL},
        {"fig16", 0xb51210a5283e3c60ULL},
        {"fig17", 0xd7cd4a980fcad3dbULL},
        {"fig18", 0x5a0e3cac352a65e8ULL},
        {"fig19", 0x827103e725ae3bc4ULL},
        {"fig20", 0x1f64496bf408e013ULL},
        {"fig21", 0x8598c0dcb00d279fULL},
        {"tab1", 0x5d52c65b1031a925ULL},
        {"tab2", 0x0f1bf0e7582ee920ULL},
    };
    return v;
}

std::string
hex(std::uint64_t v)
{
    std::ostringstream os;
    os << "0x" << std::hex << v;
    return os.str();
}

/** Pinned campaign names, the test parameter. */
std::vector<std::string>
pinnedCampaigns()
{
    std::vector<std::string> names;
    for (const DigestPin &pin : pins())
        names.emplace_back(pin.campaign);
    return names;
}

class GoldenDigest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(GoldenDigest, MatchesPin)
{
    const std::string &name = GetParam();
    std::uint64_t pinned = 0;
    for (const DigestPin &pin : pins())
        if (name == pin.campaign)
            pinned = pin.digest;
    const CampaignSpec *spec = findCampaign(name);
    ASSERT_NE(spec, nullptr) << name << " is not registered";

    Config cfg;
    for (const char *token : {"warmup=20000", "measure=40000",
                              "interval=10000", "seed=42", "check=1"})
        cfg.parseToken(token);
    RunConfig rc = makeRunConfig(cfg);

    auto baselines = std::make_shared<AloneBaselineCache>();
    CampaignOptions opts;
    opts.jobs = 16;
    opts.progress = false;
    std::ostringstream os;
    Json doc = runCampaign(*spec, rc, baselines, opts, os);

    for (const auto &job : doc.at("jobs").members()) {
        if (const Json *v = job.second.find("check_violations")) {
            EXPECT_EQ(v->asInt(), 0) << job.first;
        }
    }

    std::uint64_t digest = hashString(doc.at("jobs").dump() +
                                      doc.at("summary").dump());
    EXPECT_EQ(digest, pinned)
        << name << " computed " << hex(digest) << ", pinned "
        << hex(pinned);
}

INSTANTIATE_TEST_SUITE_P(Pinned, GoldenDigest,
                         ::testing::ValuesIn(pinnedCampaigns()));

TEST(GoldenDigestTable, CoversEveryRegisteredSpec)
{
    for (const CampaignSpec *spec : campaignRegistry()) {
        bool pinned = false;
        for (const DigestPin &pin : pins())
            pinned = pinned || spec->name == pin.campaign;
        EXPECT_TRUE(pinned) << spec->name << " has no golden digest";
    }
}

} // namespace
} // namespace dbpsim
