/**
 * @file
 * Run digests: one pinned hash per configuration over what a run
 * leaves behind beyond its campaign result (run_digest.hh lists what
 * the digest covers). The golden campaign digests (test_golden.cc)
 * see IPCs and the metrics derived from them; these also see every
 * counter, the closed profiles and every DRAM command with its cycle.
 *
 * Each case builds its System as runMixJob() does at
 * warmup=20000 measure=40000 interval=10000 seed=42 with an explicit
 * check= so a DBPSIM_CHECK build pins the same value. The
 * configurations between them reach every scheduler family, page
 * policy, refresh mode, SALP mode, migration mode, every dynamic
 * partitioning policy (DBP, MCP and the composed DBP-MCP) and a
 * starved core (4 MSHRs, 4 store-buffer entries, short queues).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "run_digest.hh"

namespace dbpsim {
namespace {

struct RunPin
{
    const char *label; ///< test-name suffix.
    const char *mix;
    const char *scheme;
    const char *extra; ///< config tokens beyond the shared window.
    std::uint64_t digest;
};

const std::vector<RunPin> &
pins()
{
    static const std::vector<RunPin> v = {
        {"W10_DbpTcm", "W10", "DBP-TCM", "check=0",
         0x489ba36af00835efULL},
        {"W10_Dbp", "W10", "DBP", "check=0", 0x90b1b77d32744757ULL},
        {"W01_Ubp", "W01", "UBP", "check=0", 0xc3abee3b254c0e2eULL},
        {"W04_Dbp_PerBankAwareSalp2Eager", "W04", "DBP",
         "refresh=perbank refresh_aware=1 salp=salp2 migration=eager "
         "check=1",
         0xd99771f7827ad043ULL},
        {"W08_DbpTcm_DarpLazy", "W08", "DBP-TCM",
         "refresh=darp migration=lazy check=0", 0xb42d021c9e96ad76ULL},
        {"W10_ParBs_ClosedPage", "W10", "PAR-BS",
         "page_policy=closed check=0", 0x467f4ec29bb57312ULL},
        {"W02_Atlas_AdaptivePage", "W02", "ATLAS",
         "page_policy=adaptive row_idle_timeout=50 check=0",
         0x6ccd92dd1d7726c8ULL},
        {"W05_Mcp_IdealizedDram", "W05", "MCP", "refresh=none check=0",
         0xa430cb5b83b74f1eULL},
        {"W11_Dbp_MasaColored", "W11", "DBP",
         "salp=masa subarrays=8 subarray_color=1 check=1",
         0x89864d2619ab043cULL},
        {"W12_Fcfs_SmallCore", "W12", "FCFS",
         "mshrs=4 store_buffer=4 read_queue=16 write_queue=48 check=0",
         0xdd0150103e40a68fULL},
        // A short tREFI and a 2-deep postpone window force and boost
        // aware units inside the window; at the defaults no aware
        // unit is boosted before 6 tREFI, past the window's end.
        {"W04_Dbp_DarpShortPostpone", "W04", "DBP",
         "refresh=darp refresh_postpone=2 trefi=1500 salp=salp2 check=1",
         0xdece162e855c7ec4ULL},
        {"W10_Tcm_DarpShortPostpone", "W10", "TCM",
         "refresh=darp refresh_postpone=2 trefi=1500 check=1",
         0xfa57d36a2fa392dbULL},
        // The composed DBP-MCP policy, plain, under TCM and with
        // subarray colors (shares carved in whole banks, as in DBP).
        {"W04_DbpMcp", "W04", "DBP-MCP", "check=1",
         0x4ebdf89f1ca7607aULL},
        {"W10_DbpMcpTcm", "W10", "DBP-MCP-TCM", "check=1",
         0xf30252d5bad092bbULL},
        {"W11_DbpMcp_MasaColored", "W11", "DBP-MCP",
         "salp=masa subarrays=8 subarray_color=1 check=1",
         0x818ea44e02a806f2ULL},
    };
    return v;
}

/** Digest of one pinned configuration's run. */
std::uint64_t
pinDigest(const RunPin &pin)
{
    const RunConfig rc = runConfigFromTokens(
        std::string("warmup=20000 measure=40000 interval=10000 seed=42 ") +
        pin.extra);
    return runDigest(rc, mixByName(pin.mix), schemeByName(pin.scheme));
}

/** Name a configuration by its label in gtest's failure output. */
void
PrintTo(const RunPin &pin, std::ostream *os)
{
    *os << pin.label;
}

class RunDigest : public ::testing::TestWithParam<RunPin>
{
};

TEST_P(RunDigest, MatchesPin)
{
    const RunPin &pin = GetParam();
    const std::uint64_t digest = pinDigest(pin);
    EXPECT_EQ(digest, pin.digest)
        << pin.label << " computed " << hexDigest(digest) << ", pinned "
        << hexDigest(pin.digest);
}

INSTANTIATE_TEST_SUITE_P(
    Pinned, RunDigest, ::testing::ValuesIn(pins()),
    [](const ::testing::TestParamInfo<RunPin> &param) {
        return std::string(param.param.label);
    });

} // namespace
} // namespace dbpsim
