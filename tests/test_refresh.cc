/**
 * @file
 * Refresh-engine tests: debt accounting against the rank schedule, the
 * staggered rank deadline, the exactly-8 postpone edge of the aware
 * engine, per-bank round-robin rotation, the blocking scope of REFpb,
 * DARP-style pull-in and demand-avoiding reorder at both
 * granularities, the issue-to-issue gap bound after a
 * pull-in burst, the quiet horizon under random channel traffic,
 * config plumbing, and campaign determinism of the
 * refresh-mode sweep. Runs under TSan in scripts/check.sh
 * (ctest -R 'Refresh|ProtocolCheck').
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>

#include "common/random.hh"
#include "dram/refresh.hh"
#include "sim/campaign.hh"
#include "sim/params.hh"

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

/** Demand view with a switchable global state and one hot bank. */
class FakeDemand : public RefreshDemandView
{
  public:
    bool everywhere = false;   ///< demand on every bank.
    int hotRank = -1;          ///< single bank with demand (if >= 0).
    int hotBank = -1;

    bool hasBankDemand(unsigned rank, unsigned bank) const override
    {
        if (everywhere)
            return true;
        return static_cast<int>(rank) == hotRank &&
               static_cast<int>(bank) == hotBank;
    }

    bool hasRankDemand(unsigned rank) const override
    {
        if (everywhere)
            return true;
        return static_cast<int>(rank) == hotRank;
    }
};

// ---- debt accounting ------------------------------------------------

TEST(Refresh, AllBankDebtTracksSchedule)
{
    DramTiming t = ddr3_1600();
    DramChannel ch(geo(), t, 0);
    RefreshParams p;
    p.mode = RefreshMode::AllBank;
    RefreshEngine eng(ch, nullptr, p);

    // Rank 0 of 2 is first due at tREFI / 2; debt grows by one per
    // missed tREFI after that, and every bank reads its rank's debt.
    Cycle due = t.tREFI / 2;
    EXPECT_EQ(eng.debt(0, 0, 0), 0u);
    EXPECT_EQ(eng.debt(0, 0, due - 1), 0u);
    EXPECT_EQ(eng.debt(0, 0, due), 1u);
    EXPECT_EQ(eng.debt(0, 7, due), 1u);
    EXPECT_EQ(eng.debt(0, 0, due + t.tREFI - 1), 1u);
    EXPECT_EQ(eng.debt(0, 0, due + t.tREFI), 2u);
    EXPECT_EQ(eng.debt(0, 0, due + 5 * t.tREFI), 6u);

    // The engine's REF retires exactly one unit of the rank's debt.
    EXPECT_TRUE(eng.tick(due + 5 * t.tREFI));
    EXPECT_EQ(ch.statRefreshes.value(), 1u);
    EXPECT_EQ(eng.debt(0, 0, due + 5 * t.tREFI), 5u);
}

TEST(Refresh, AllBankForcesEachRankAtItsDeadline)
{
    DramTiming t = ddr3_1600();
    DramChannel ch(geo(), t, 0);
    RefreshEngine eng(ch, nullptr, RefreshParams{});

    // Rank deadlines are staggered; rank 1 of 2 is due at tREFI. An
    // open bank keeps its REF from issuing at once.
    EXPECT_EQ(eng.dueAt(1, 0), t.tREFI);
    ch.issue(DramCmd::Activate, 1, 3, 5, 0);
    eng.tick(t.tREFI - 1); // refreshes rank 0, due since tREFI / 2.
    EXPECT_FALSE(eng.blocks(1, 3));

    // From its deadline the rank is held back and drained...
    EXPECT_TRUE(eng.tick(t.tREFI));
    EXPECT_TRUE(eng.blocks(1, 0));
    EXPECT_TRUE(eng.blocks(1, 7));
    EXPECT_FALSE(eng.blocks(0, 0));
    EXPECT_FALSE(ch.bank(1, 3).open());

    // ...until its REF issues and the deadline moves one tREFI on.
    const Cycle ref_at = t.tREFI + t.tRP;
    EXPECT_TRUE(eng.tick(ref_at));
    EXPECT_EQ(ch.statRefreshes.value(), 2u);
    EXPECT_EQ(eng.lastRefreshAt(1, 0), ref_at);
    EXPECT_EQ(eng.dueAt(1, 0), 2 * t.tREFI);
    EXPECT_FALSE(eng.tick(ref_at + t.tRFC));
    EXPECT_FALSE(eng.blocks(1, 0));
}

TEST(Refresh, BankDebtTracksPerBankSchedule)
{
    DramTiming t = ddr3_1600();
    DramChannel ch(geo(), t, 0);
    RefreshParams p;
    p.mode = RefreshMode::PerBank;
    RefreshEngine eng(ch, nullptr, p);

    // Per-bank slots are staggered across the whole channel: bank b of
    // rank r is first due at tREFI * (r*banks + b + 1) / (ranks*banks).
    Cycle due = eng.dueAt(0, 0);
    EXPECT_EQ(due, t.tREFI * 1 / 16);
    EXPECT_EQ(eng.dueAt(1, 7), t.tREFI);
    EXPECT_EQ(eng.debt(0, 0, due - 1), 0u);
    EXPECT_EQ(eng.debt(0, 0, due), 1u);
    EXPECT_EQ(eng.debt(0, 1, due), 0u);
    EXPECT_EQ(eng.debt(0, 0, due + 3 * t.tREFI), 4u);
}

// ---- the 8-deep postpone edge ---------------------------------------

TEST(Refresh, AwareAllBankForcesAtExactlyPostponeMax)
{
    DramTiming t = ddr3_1600();
    DramChannel ch(geo(), t, 0);
    RefreshParams p;
    p.mode = RefreshMode::AllBank;
    p.aware = true;
    FakeDemand demand;
    demand.everywhere = true; // never idle: no pull-in, only postpone.
    RefreshEngine eng(ch, &demand, p);

    // Rank 0's debt reaches postponeMax (8) at first-due + 7 * tREFI;
    // with demand everywhere the aware engine must postpone until
    // exactly that cycle and no further.
    Cycle force_at = t.tREFI / 2 + 7 * t.tREFI;
    for (Cycle now = 0; now < force_at; ++now) {
        eng.tick(now);
        ASSERT_EQ(ch.statRefreshes.value(), 0u) << "early REF at " << now;
    }
    // One tREFI ahead of the bound the rank is drain-boosted.
    eng.tick(force_at - t.tREFI);
    EXPECT_TRUE(eng.drainBoost(0, 3));

    EXPECT_TRUE(eng.tick(force_at));
    EXPECT_EQ(ch.statRefreshes.value(), 1u);
    EXPECT_EQ(eng.lastRefreshAt(0, 0), force_at);
}

// ---- per-bank rotation ----------------------------------------------

TEST(Refresh, PerBankRotatesRoundRobinOnTheStagger)
{
    DramTiming t = ddr3_1600();
    DramChannel ch(geo(), t, 0);
    RefreshParams p;
    p.mode = RefreshMode::PerBank;
    RefreshEngine eng(ch, nullptr, p);

    for (Cycle now = 0; now <= t.tREFI; ++now)
        eng.tick(now);

    // Every bank refreshed exactly once, in stagger order, each at its
    // own deadline: rank 0 banks 0..7 first, then rank 1 banks 0..7.
    EXPECT_EQ(ch.statRefreshesPb.value(), 16u);
    Cycle prev = 0;
    for (unsigned r = 0; r < 2; ++r) {
        for (unsigned b = 0; b < 8; ++b) {
            Cycle at = eng.lastRefreshAt(r, b);
            Cycle slot = t.tREFI * (r * 8 + b + 1) / 16;
            EXPECT_EQ(at, slot) << "rank " << r << " bank " << b;
            EXPECT_GT(at, prev);
            prev = at;
            // The deadline advanced to the next period.
            EXPECT_EQ(eng.dueAt(r, b), slot + t.tREFI);
        }
    }
}

TEST(Refresh, PerBankBlocksOnlyTheRefreshingBank)
{
    DramTiming t = ddr3_1600();
    DramChannel ch(geo(), t, 0);
    RefreshParams p;
    p.mode = RefreshMode::PerBank;
    RefreshEngine eng(ch, nullptr, p);

    // Open rank 0 bank 0 well before its REFpb slot at tREFI/16; the
    // engine must drain exactly that bank and leave the rest alone.
    ch.issue(DramCmd::Activate, 0, 0, 5, 100);
    Cycle slot = t.tREFI / 16;
    Cycle now = 0;
    for (; now <= slot; ++now)
        eng.tick(now);

    EXPECT_TRUE(eng.blocks(0, 0));
    EXPECT_FALSE(eng.blocks(0, 1));
    EXPECT_FALSE(eng.blocks(1, 0));
    EXPECT_FALSE(ch.bank(0, 0).open()) << "forced bank was not drained";

    // Run on until the REFpb lands, then check its blocking scope.
    for (; ch.statRefreshesPb.value() == 0; ++now)
        eng.tick(now);
    Cycle at = eng.lastRefreshAt(0, 0);
    EXPECT_TRUE(ch.bank(0, 0).refreshing(at + t.tRFCpb - 1));
    EXPECT_FALSE(ch.canIssue(DramCmd::Activate, 0, 0, 1,
                             at + t.tRFCpb - 1));
    EXPECT_TRUE(ch.canIssue(DramCmd::Activate, 0, 1, 1,
                            at + t.tRFCpb - 1));
    EXPECT_TRUE(ch.canIssue(DramCmd::Activate, 1, 0, 1,
                            at + t.tRFCpb - 1));
}

// ---- DARP-style awareness -------------------------------------------

TEST(Refresh, AwarePullsInDuringIdle)
{
    DramTiming t = ddr3_1600();
    for (RefreshMode mode : {RefreshMode::AllBank, RefreshMode::PerBank}) {
        DramChannel ch(geo(), t, 0);
        RefreshParams p;
        p.mode = mode;
        p.aware = true;
        FakeDemand demand; // idle everywhere.
        RefreshEngine eng(ch, &demand, p);

        for (Cycle now = 0; now < 3000; ++now)
            eng.tick(now);

        // Long before any deadline, the idle engine banked the full
        // 8-deep pull-in credit on every unit: each of the 2 ranks
        // (all-bank) or each of the 16 banks (per-bank).
        const std::uint64_t units = mode == RefreshMode::AllBank ? 2 : 16;
        EXPECT_GE(ch.statRefreshes.value() + ch.statRefreshesPb.value(),
                  units * 8u)
            << refreshModeName(mode);
        for (unsigned r = 0; r < 2; ++r)
            for (unsigned b = 0; b < 8; ++b)
                EXPECT_GE(eng.dueAt(r, b),
                          eng.params().postponeMax * t.tREFI)
                    << refreshModeName(mode) << " rank " << r << " bank "
                    << b;
    }
}

TEST(Refresh, AwareReordersAwayFromDemandBanks)
{
    DramTiming t = ddr3_1600();
    for (RefreshMode mode : {RefreshMode::AllBank, RefreshMode::PerBank}) {
        DramChannel ch(geo(), t, 0);
        RefreshParams p;
        p.mode = mode;
        p.aware = true;
        FakeDemand demand;
        demand.hotRank = 0;
        demand.hotBank = 3; // one busy bank, everything else idle.
        RefreshEngine eng(ch, &demand, p);

        Cycle first_due = eng.dueAt(0, 3);
        for (Cycle now = 0; now < 3000; ++now)
            eng.tick(now);

        // The busy unit — bank 3 of rank 0, or all of rank 0 under
        // all-bank refresh — is postponed (deadline untouched) while
        // every idle unit was pulled in.
        for (unsigned r = 0; r < 2; ++r)
            for (unsigned b = 0; b < 8; ++b) {
                const bool busy = r == 0 &&
                    (mode == RefreshMode::AllBank || b == 3);
                if (busy)
                    EXPECT_EQ(eng.dueAt(r, b), first_due)
                        << refreshModeName(mode) << " bank " << b;
                else
                    EXPECT_GT(eng.dueAt(r, b), t.tREFI)
                        << refreshModeName(mode) << " rank " << r
                        << " bank " << b;
            }

        // Once its postpone debt is exhausted the busy unit is forced
        // regardless of demand: deadline first_due, forced 7 tREFI
        // later.
        Cycle force_at = first_due + 7 * t.tREFI;
        // dbplint:allow(cycle-literal) reason=test scenario resume point after the pull-in burst above, not a device timing
        for (Cycle now = 3000; now <= force_at; ++now)
            eng.tick(now);
        EXPECT_EQ(eng.lastRefreshAt(0, 3), force_at) << refreshModeName(mode);
        EXPECT_GT(eng.dueAt(0, 3), first_due) << refreshModeName(mode);
    }
}

TEST(Refresh, GapBoundHoldsAfterPullInBurst)
{
    // Regression: pulling in the full credit and then postponing by
    // schedule debt alone would stretch the issue-to-issue gap toward
    // 16 tREFI; the device (and the protocol checker) bound it at
    // (postponeMax + 1) * tREFI, so the engine must also force on
    // elapsed time since the last REFpb.
    DramTiming t = ddr3_1600();
    DramChannel ch(geo(), t, 0);
    RefreshParams p;
    p.mode = RefreshMode::PerBank;
    p.aware = true;
    FakeDemand demand; // idle: burst of pull-ins first...
    RefreshEngine eng(ch, &demand, p);

    const Cycle bound = (p.postponeMax + 1) * t.tREFI;
    for (Cycle now = 0; now < 20 * t.tREFI; ++now) {
        if (now == 2000)
            demand.everywhere = true; // ...then demand forever.
        eng.tick(now);
        for (unsigned r = 0; r < 2; ++r)
            for (unsigned b = 0; b < 8; ++b)
                ASSERT_LE(now - eng.lastRefreshAt(r, b), bound)
                    << "rank " << r << " bank " << b << " at " << now;
    }
}

// ---- the quiet horizon ----------------------------------------------

/** Do @p a and @p b agree on every hold-back and drain-boost bit? */
bool
sameMasks(const RefreshEngine &a, const RefreshEngine &b,
          const DramGeometry &g)
{
    for (unsigned r = 0; r < g.ranksPerChannel; ++r)
        for (unsigned bank = 0; bank < g.banksPerRank; ++bank)
            if (a.blocks(r, bank) != b.blocks(r, bank) ||
                a.drainBoost(r, bank) != b.drainBoost(r, bank))
                return false;
    return true;
}

TEST(Refresh, QuietHorizonHoldsWhileNothingChanges)
{
    // A short tREFI and a 2-deep postpone window bring every unit's
    // owed, pull-in, boost and forced edges within a few thousand
    // cycles.
    DramTiming t = ddr3_1600();
    t.tREFI = ddr3_1600().tREFI / 8;
    const DramGeometry g = geo();
    for (RefreshMode mode : {RefreshMode::AllBank, RefreshMode::PerBank}) {
        for (bool aware : {false, true}) {
            SCOPED_TRACE(std::string(refreshModeName(mode)) +
                         (aware ? " aware" : ""));
            DramChannel ch(g, t, 0);
            FakeDemand demand;
            RefreshParams p;
            p.mode = mode;
            p.aware = aware;
            p.postponeMax = 2;
            RefreshEngine eng(ch, &demand, p);
            Rng rng(42);
            for (Cycle now = 0; now < 12 * t.tREFI; ++now) {
                if (eng.tick(now))
                    continue;
                // With the channel and the demand left alone, every
                // later tick before quietUntil() must issue nothing
                // and set the masks this one set.
                const Cycle quiet = eng.quietUntil();
                const Cycle until = std::min(quiet, now + 2 * t.tREFI);
                RefreshEngine copy = eng;
                for (Cycle c = now + 1; c < until; ++c) {
                    ASSERT_FALSE(copy.tick(c))
                        << "issued at " << c << " inside the horizon "
                        << now << ".." << quiet;
                    ASSERT_TRUE(sameMasks(copy, eng, g))
                        << "masks moved at " << c << " inside the horizon "
                        << now << ".." << quiet;
                }

                // Then change the demand or the channel, as the
                // request path does: a legal ACT, RD or PRE to a bank
                // the engine does not hold back.
                if (rng.nextBool(0.01)) {
                    // Demand everywhere, nowhere or on one bank.
                    const std::uint64_t pick = rng.nextBelow(3);
                    demand.everywhere = pick == 0;
                    demand.hotRank = pick == 2
                        ? static_cast<int>(rng.nextBelow(g.ranksPerChannel))
                        : -1;
                    demand.hotBank =
                        static_cast<int>(rng.nextBelow(g.banksPerRank));
                }
                if (!rng.nextBool(0.3))
                    continue;
                const auto r =
                    static_cast<unsigned>(rng.nextBelow(g.ranksPerChannel));
                const auto b =
                    static_cast<unsigned>(rng.nextBelow(g.banksPerRank));
                if (eng.blocks(r, b))
                    continue;
                const BankState &bs = ch.bank(r, b);
                DramCmd cmd = DramCmd::Activate;
                std::uint64_t row = rng.nextBelow(g.rowsPerBank);
                if (bs.open()) {
                    cmd = rng.nextBool(0.5) ? DramCmd::Read
                                            : DramCmd::Precharge;
                    row = bs.row();
                }
                if (ch.canIssue(cmd, r, b, row, now))
                    ch.issue(cmd, r, b, row, now);
            }
        }
    }
}

// ---- modes and config plumbing --------------------------------------

TEST(Refresh, NoneModeNeverRefreshes)
{
    DramTiming t = ddr3_1600();
    DramChannel ch(geo(), t, 0);
    RefreshParams p;
    p.mode = RefreshMode::None;
    RefreshEngine eng(ch, nullptr, p);

    for (Cycle now = 0; now < 3 * t.tREFI; ++now) {
        EXPECT_FALSE(eng.tick(now));
        ASSERT_FALSE(eng.blocks(0, 0));
    }
    EXPECT_EQ(ch.statRefreshes.value(), 0u);
    EXPECT_EQ(ch.statRefreshesPb.value(), 0u);
}

TEST(Refresh, ModeNamesRoundTrip)
{
    for (RefreshMode m : {RefreshMode::None, RefreshMode::AllBank,
                          RefreshMode::PerBank})
        EXPECT_EQ(refreshModeByName(refreshModeName(m)), m);
    EXPECT_EQ(refreshModeByName("all-bank"), RefreshMode::AllBank);
    EXPECT_EQ(refreshModeByName("per-bank"), RefreshMode::PerBank);
}

TEST(Refresh, ConfigKeysReachTheEngineParams)
{
    SystemParams defaults;
    EXPECT_EQ(defaults.controller.refresh.mode, RefreshMode::AllBank);
    EXPECT_FALSE(defaults.controller.refresh.aware);

    Config cfg;
    cfg.parseToken("refresh=darp");
    cfg.parseToken("refresh_postpone=4");
    cfg.parseToken("trefi=5000");
    cfg.parseToken("trfc=100");
    cfg.parseToken("trfc_pb=50");
    const SystemParams params = makeRunConfig(cfg).base;

    EXPECT_EQ(params.controller.refresh.mode, RefreshMode::PerBank);
    EXPECT_TRUE(params.controller.refresh.aware);
    EXPECT_EQ(params.controller.refresh.postponeMax, 4u);
    DramTiming t = params.timing();
    EXPECT_EQ(t.tREFI, 5000u);
    EXPECT_EQ(t.tRFC, 100u);
    EXPECT_EQ(t.tRFCpb, 50u);
    EXPECT_NE(params.summary().find("refresh=perbank+aware"),
              std::string::npos);

    Config off;
    off.parseToken("refresh=none");
    EXPECT_EQ(makeRunConfig(off).base.controller.refresh.mode,
              RefreshMode::None);
}

TEST(Refresh, SignatureSeparatesRefreshConfigs)
{
    RunConfig a;
    RunConfig b;
    b.base.controller.refresh.mode = RefreshMode::PerBank;
    EXPECT_NE(runConfigSignature(a), runConfigSignature(b));

    RunConfig c;
    c.base.controller.refresh.aware = true;
    EXPECT_NE(runConfigSignature(a), runConfigSignature(c));

    RunConfig d;
    d.base.trfcPbOverride = 32;
    EXPECT_NE(runConfigSignature(a), runConfigSignature(d));
}

// ---- campaign determinism across --jobs widths ----------------------

/** A fig20-shaped miniature: refresh modes x schemes on tiny mixes. */
CampaignSpec
tinyRefreshSpec()
{
    std::vector<WorkloadMix> mixes = {{"T1", {"mcf", "gcc"}}};
    std::vector<Scheme> schemes = {schemeByName("FR-FCFS"),
                                   schemeByName("DBP")};
    CampaignSpec spec;
    spec.name = "tiny-refresh";
    spec.title = "refresh sweep determinism fixture";
    spec.plan = [mixes, schemes](CampaignPlan &plan,
                                 CampaignContext &ctx) {
        struct ModePoint
        {
            const char *name;
            RefreshMode mode;
            bool aware;
        };
        for (const ModePoint &m :
             {ModePoint{"all-bank", RefreshMode::AllBank, false},
              ModePoint{"per-bank", RefreshMode::PerBank, false},
              ModePoint{"darp", RefreshMode::PerBank, true}}) {
            RunConfig cfg = ctx.config();
            cfg.base.controller.refresh.mode = m.mode;
            cfg.base.controller.refresh.aware = m.aware;
            cfg.base.protocolCheck = true;
            planMixSweep(plan, {cfg, mixes, schemes, m.name,
                                std::string(m.name) + "/"});
        }
    };
    spec.render = [](CampaignRun &, std::ostream &) {};
    return spec;
}

TEST(RefreshCampaign, ParallelSweepIsBitIdenticalToSerial)
{
    RunConfig rc;
    rc.base.geometry.rowsPerBank = 4096;
    rc.base.profileIntervalCpu = 60'000;
    rc.warmupCpu = 100'000;
    rc.measureCpu = 250'000;
    CampaignSpec spec = tinyRefreshSpec();
    auto baselines = std::make_shared<AloneBaselineCache>();

    CampaignOptions serial;
    serial.jobs = 1;
    serial.progress = false;
    std::ostringstream serial_out;
    Json ref = runCampaign(spec, rc, baselines, serial, serial_out);

    // All modes produced results, and every job came back clean.
    for (const char *key :
         {"all-bank/T1/DBP", "per-bank/T1/DBP", "darp/T1/DBP"}) {
        const Json &job = ref.at("jobs").at(key);
        EXPECT_GT(job.at("ws").asDouble(), 0.0) << key;
        EXPECT_EQ(job.at("check_violations").asUInt(), 0u) << key;
    }

    CampaignOptions parallel;
    parallel.jobs = 8;
    parallel.progress = false;
    std::ostringstream par_out;
    Json doc = runCampaign(spec, rc, baselines, parallel, par_out);
    EXPECT_EQ(doc.at("jobs").dump(), ref.at("jobs").dump());
    EXPECT_EQ(doc.at("summary").dump(), ref.at("summary").dump());
}

} // namespace
} // namespace dbpsim
