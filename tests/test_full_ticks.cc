/**
 * @file
 * The full-tick oracle. SystemParams::fullTicks switches every skip
 * off where it is decided (no bubble run, no sleeping core, no quiet
 * refresh or scan horizon, no sleeping controller, no jump over quiet
 * cycles), so every core and controller ticks in full every cycle.
 * Each skip claims that every statistic and DRAM command stays what
 * the full tick gives; this suite checks the claim on configurations
 * drawn at random from a small value domain per parameter-table row,
 * with a mix from standardMixes() and a scheme from standardSchemes(),
 * by comparing each draw's run digest (run_digest.hh) both ways.
 *
 * The domains respect makeRunConfig()'s cross-key rules, which fatal()
 * a bad draw: write_queue stays at or above the drain high watermark,
 * subarray_color=1 only comes with a SALP mode, the refresh overrides
 * keep tREFI > tRFC >= tRFCpb and tSA <= tRCD on every preset, and
 * every geometry is a power of two.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/random.hh"
#include "run_digest.hh"

namespace dbpsim {
namespace {

/** The values a draw may give each parameter-table key. */
const std::map<std::string, std::vector<std::string>> &
domains()
{
    static const std::map<std::string, std::vector<std::string>> d = {
        {"cpu_ratio", {"2", "4", "6"}},
        {"window", {"32", "64", "128"}},
        {"issue_width", {"1", "3", "4", "8"}},
        {"mshrs", {"4", "16", "32"}},
        {"store_buffer", {"4", "32"}},
        {"channels", {"1", "2", "4"}},
        {"ranks", {"1", "2"}},
        {"banks", {"4", "8"}},
        {"rows", {"16384", "65536"}},
        {"row_bytes", {"4096", "8192"}},
        {"subarrays", {"2", "8"}},
        {"timing", {"ddr3-1600", "ddr3-1333", "ddr3-1066"}},
        {"read_queue", {"8", "16", "64"}},
        {"write_queue", {"48", "64"}},
        {"page_policy", {"open", "closed", "adaptive"}},
        {"row_idle_timeout", {"50", "100"}},
        {"refresh", {"none", "allbank", "perbank", "darp"}},
        {"refresh_aware", {"0", "1"}},
        {"refresh_postpone", {"1", "2", "8"}},
        {"trefi", {"0", "1500", "3000"}},
        {"trfc", {"0", "120"}},
        {"trfc_pb", {"0", "40"}},
        {"salp", {"none", "salp1", "salp2", "masa"}},
        {"tsa", {"0", "2", "5"}},
        {"subarray_color", {"0", "1"}},
        {"tcm_cluster_thresh", {"0.1", "0.3"}},
        {"tcm_shuffle", {"100", "800"}},
        {"atlas_quantum", {"5000", "150000"}},
        {"parbs_cap", {"3", "5"}},
        {"dbp_light_mpki", {"1", "4"}},
        {"dbp_light_banks_per_thread", {"0.5", "1", "2"}},
        {"dbp_flat_demand", {"0", "1"}},
        {"dbp_hysteresis", {"0", "2"}},
        {"mcp_low_mpki", {"1.5", "10"}},
        {"mcp_high_rbl", {"0.5", "0.75"}},
        {"migration", {"none", "lazy", "eager", "free"}},
        {"max_migrate_pages", {"0", "16", "128"}},
        {"interval", {"5000", "10000", "25000"}},
        {"check", {"0", "1"}},
        {"check_failfast", {"0", "1"}},
        {"warmup", {"10000", "20000"}},
        {"measure", {"20000", "40000"}},
        {"seed", {"1", "7", "42"}},
    };
    return d;
}

/** One random configuration. */
struct Draw
{
    std::string label; ///< test-name suffix.
    std::string tokens;
    std::string mix;
    std::string scheme;
};

/** Draws made from one fixed seed, so every run tests the same ones. */
std::vector<Draw>
draws()
{
    constexpr unsigned kDraws = 32;
    Rng rng(0x0f011c7e5eedULL);
    std::vector<Draw> out;
    for (unsigned i = 0; i < kDraws; ++i) {
        Draw d;
        bool salp = false;
        for (const ParamRow &row : paramTable()) {
            auto it = domains().find(row.key);
            if (it == domains().end())
                continue; // FullTickDomains fails instead.
            const std::vector<std::string> &values = it->second;
            std::string value = values[rng.nextBelow(values.size())];
            if (std::string(row.key) == "salp")
                salp = value != "none";
            if (std::string(row.key) == "subarray_color" && !salp)
                value = "0"; // needs a SALP mode.
            d.tokens += std::string(row.key) + "=" + value + " ";
        }
        const auto &mixes = standardMixes();
        const auto &schemes = standardSchemes();
        d.mix = mixes[rng.nextBelow(mixes.size())].name;
        d.scheme = schemes[rng.nextBelow(schemes.size())].name;
        d.label = "d" + std::to_string(i) + "_" + d.mix + "_";
        for (char c : d.scheme)
            if (c != '-')
                d.label += c;
        out.push_back(d);
    }
    return out;
}

TEST(FullTickDomains, EveryTableRowHasOne)
{
    for (const ParamRow &row : paramTable())
        EXPECT_TRUE(domains().count(row.key))
            << "parameter-table key '" << row.key
            << "' has no domain in the full-tick oracle";
    EXPECT_EQ(domains().size(), paramTable().size())
        << "a domain names a key the table does not have";
}

/** Name a draw by its label in gtest's failure output. */
void
PrintTo(const Draw &d, std::ostream *os)
{
    *os << d.label << ": " << d.mix << '/' << d.scheme << ' ' << d.tokens;
}

class FullTickOracle : public ::testing::TestWithParam<Draw>
{
};

TEST_P(FullTickOracle, SkipsMatchFullTicks)
{
    const Draw &d = GetParam();
    const RunConfig rc = runConfigFromTokens(d.tokens);
    const WorkloadMix &mix = mixByName(d.mix);
    const Scheme &scheme = schemeByName(d.scheme);
    const std::uint64_t skipping = runDigest(rc, mix, scheme);
    const std::uint64_t full = runDigest(rc, mix, scheme, true);
    EXPECT_EQ(skipping, full)
        << d.mix << '/' << d.scheme << ' ' << d.tokens << ": skipping "
        << hexDigest(skipping) << ", full ticks " << hexDigest(full);
}

INSTANTIATE_TEST_SUITE_P(
    Drawn, FullTickOracle, ::testing::ValuesIn(draws()),
    [](const ::testing::TestParamInfo<Draw> &param) {
        return param.param.label;
    });

} // namespace
} // namespace dbpsim
