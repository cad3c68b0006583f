/**
 * @file
 * Run digests: one pinned hash per configuration over what a run
 * leaves behind beyond its campaign result. The golden campaign
 * digests (test_golden.cc) see IPCs and the metrics derived from
 * them; these also see
 *
 *  - every counter dumpStats() prints, the cores' head, MSHR and
 *    store-buffer stall counters among them;
 *  - the closed interval profiles, so the profiler's BLP, MLP and
 *    row-parallelism sums;
 *  - the cycle, target and thread of every DRAM command, hashed by a
 *    forwarding command observer that chains to the protocol checker
 *    when the configuration enables it.
 *
 * Each case builds its System as runMixJob() does at
 * warmup=20000 measure=40000 interval=10000 seed=42 with an explicit
 * check= so a DBPSIM_CHECK build pins the same value. The
 * configurations between them reach every scheduler family, page
 * policy, refresh mode, SALP mode, migration mode and a starved core
 * (4 MSHRs, 4 store-buffer entries, short queues).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "sim/baseline.hh"
#include "sim/schemes.hh"
#include "sim/system.hh"
#include "trace/mix.hh"

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
    };
    return v;
}

/** FNV-1a step over one 64-bit value. */
void
mix64(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
}

/** Hashes every issued command, then forwards it to @p next. */
class HashingObserver : public CommandObserver
{
  public:
    explicit HashingObserver(CommandObserver *next) : next_(next) {}

    void
    onCommand(const CmdEvent &ev) override
    {
        mix64(hash, ev.channel);
        mix64(hash, static_cast<std::uint64_t>(ev.cmd));
        mix64(hash, ev.rank);
        mix64(hash, ev.bank);
        mix64(hash, ev.row);
        mix64(hash, ev.cycle);
        mix64(hash, static_cast<std::uint64_t>(ev.tid));
        if (next_)
            next_->onCommand(ev);
    }

    std::uint64_t hash = 0xcbf29ce484222325ULL;

  private:
    CommandObserver *next_;
};

std::string
hex(std::uint64_t v)
{
    std::ostringstream os;
    os << "0x" << std::hex << v;
    return os.str();
}

/** Digest of one configuration's run. */
std::uint64_t
runDigest(const RunPin &pin)
{
    Config cfg;
    for (const char *token :
         {"warmup=20000", "measure=40000", "interval=10000", "seed=42"})
        cfg.parseToken(token);
    std::istringstream extra(pin.extra);
    for (std::string token; extra >> token;)
        cfg.parseToken(token);
    RunConfig rc = makeRunConfig(cfg);

    const WorkloadMix &mix = mixByName(pin.mix);
    const Scheme &scheme = schemeByName(pin.scheme);
    SystemParams params = applyScheme(rc.base, scheme);
    params.numCores = static_cast<unsigned>(mix.apps.size());
    auto owned = buildMixSources(
        mix, jobSeed(rc.seedBase, mix.name, scheme.name));
    std::vector<TraceSource *> sources;
    for (auto &s : owned)
        sources.push_back(s.get());

    System system(params, sources);
    HashingObserver commands(system.protocolChecker());
    for (unsigned c = 0; c < system.numControllers(); ++c)
        system.controllerAt(c).setCommandObserver(&commands);
    std::vector<double> ipc =
        system.runAndMeasure(rc.warmupCpu, rc.measureCpu);
    system.closeIntervalNow();

    std::ostringstream os;
    system.dumpStats(os);
    os << std::setprecision(17);
    for (double v : ipc)
        os << "ipc " << v << '\n';
    for (const ThreadMemProfile &p : system.lastIntervalProfiles())
        os << "profile " << p.mpki << ' ' << p.rowBufferHitRate << ' '
           << p.blp << ' ' << p.mlp << ' ' << p.rowParallelism << ' '
           << p.requests << '\n';
    os << "commands " << hex(commands.hash) << '\n';
    if (ProtocolChecker *pc = system.protocolChecker()) {
        pc->finalize(system.memCycle());
        EXPECT_EQ(pc->violations(), 0u) << pin.label;
    }
    return hashString(os.str());
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
    const std::uint64_t digest = runDigest(pin);
    EXPECT_EQ(digest, pin.digest)
        << pin.label << " computed " << hex(digest) << ", pinned "
        << hex(pin.digest);
}

INSTANTIATE_TEST_SUITE_P(
    Pinned, RunDigest, ::testing::ValuesIn(pins()),
    [](const ::testing::TestParamInfo<RunPin> &param) {
        return std::string(param.param.label);
    });

} // namespace
} // namespace dbpsim
