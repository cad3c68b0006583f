/**
 * @file
 * The parameter table: every config key reaches a RunConfig member and
 * the signatures its scope promises, unknown or out-of-range input is
 * fatal, and README.md's key table documents exactly the table's keys.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "sim/params.hh"

namespace dbpsim {
namespace {

TEST(ParamTable, EveryKeyMovesItsSignatures)
{
    // One non-default value per table key; a new row without a value
    // here fails below.
    const std::map<std::string, std::string> values = {
        {"cpu_ratio", "5"},
        {"window", "64"},
        {"issue_width", "2"},
        {"mshrs", "16"},
        {"store_buffer", "16"},
        {"channels", "1"},
        {"ranks", "1"},
        {"banks", "4"},
        {"rows", "4096"},
        {"row_bytes", "4096"},
        {"subarrays", "4"},
        {"timing", "ddr3-1333"},
        {"read_queue", "32"},
        {"write_queue", "96"},
        {"page_policy", "closed"},
        {"row_idle_timeout", "50"},
        {"refresh", "perbank"},
        {"refresh_aware", "1"},
        {"refresh_postpone", "4"},
        {"trefi", "5000"},
        {"trfc", "100"},
        {"trfc_pb", "50"},
        {"salp", "masa"},
        {"tsa", "3"},
        {"subarray_color", "1"},
        {"tcm_cluster_thresh", "0.2"},
        {"tcm_shuffle", "400"},
        {"atlas_quantum", "100000"},
        {"parbs_cap", "3"},
        {"dbp_light_mpki", "2.0"},
        {"dbp_light_banks_per_thread", "2.0"},
        {"dbp_flat_demand", "1"},
        {"dbp_hysteresis", "1"},
        {"mcp_low_mpki", "1.0"},
        {"mcp_high_rbl", "0.5"},
        {"migration", "eager"},
        {"max_migrate_pages", "0"},
        {"interval", "250000"},
        {"check", SystemParams().protocolCheck ? "0" : "1"},
        {"check_failfast", "1"},
        {"warmup", "1000"},
        {"measure", "2000"},
        {"seed", "7"},
    };

    Config reference;
    reference.set("salp", "salp1"); // so subarray_color=1 is legal.
    const RunConfig ref = makeRunConfig(reference);
    for (const ParamRow &row : paramTable()) {
        auto it = values.find(row.key);
        ASSERT_NE(it, values.end()) << row.key << " has no test value";
        Config cfg = reference;
        cfg.set(row.key, it->second);
        const RunConfig rc = makeRunConfig(cfg);
        EXPECT_NE(runConfigSignature(rc), runConfigSignature(ref))
            << row.key;
        if (row.scope == ParamScope::Policy)
            EXPECT_EQ(aloneRunSignature(rc), aloneRunSignature(ref))
                << row.key;
        else
            EXPECT_NE(aloneRunSignature(rc), aloneRunSignature(ref))
                << row.key;
    }
    EXPECT_EQ(values.size(), paramTable().size());
}

TEST(ParamTable, MisspelledKeyIsFatalAndNamesTheNearest)
{
    Config cfg;
    cfg.parseToken("refersh=perbank");
    EXPECT_EXIT(makeRunConfig(cfg), ::testing::ExitedWithCode(1),
                "unknown config key 'refersh'.*did you mean 'refresh'");
}

TEST(ParamTable, KeysEveryJobSetsAreUnknown)
{
    // Each job takes its core count from its mix and its scheduler and
    // policy from its scheme, so these keys would change no result.
    for (const std::string key : {"cores", "sched", "part"}) {
        Config cfg;
        cfg.set(key, "4");
        EXPECT_EXIT(makeRunConfig(cfg), ::testing::ExitedWithCode(1),
                    "unknown config key '" + key + "'")
            << key;
    }
}

TEST(ParamTable, DriverKeysAreAccepted)
{
    Config cfg;
    cfg.parseToken("mix=W07");
    cfg.parseToken("banks=16");
    EXPECT_EQ(makeRunConfig(cfg, {"mix"}).base.geometry.banksPerRank,
              16u);
    EXPECT_EXIT(makeRunConfig(cfg), ::testing::ExitedWithCode(1),
                "unknown config key 'mix'");
}

TEST(ParamTable, OutOfRangeUnsignedIsFatal)
{
    const std::pair<std::string, std::string> cases[] = {
        {"banks", "4294967304"},   // 2^32 + 8, not 8 banks.
        {"seed", "17179869184g"}, // 2^34 Gi = 2^64, not seed 0.
    };
    for (const auto &[key, value] : cases) {
        Config cfg;
        cfg.set(key, value);
        EXPECT_EXIT(makeRunConfig(cfg), ::testing::ExitedWithCode(1),
                    key + " is out of range")
            << key << '=' << value;
    }
}

TEST(ParamTable, ValueNoMachineCanBuildIsFatal)
{
    const std::pair<std::string, std::string> cases[] = {
        {"cpu_ratio", "0"},
        {"window", "0"},
        {"issue_width", "0"},
        {"mshrs", "0"},
        {"store_buffer", "0"},
        {"read_queue", "0"},
        {"write_queue", "47"}, // below the write-drain high watermark.
        {"refresh_postpone", "0"},
        {"tcm_cluster_thresh", "1.5"},
        {"tcm_shuffle", "0"},
        {"atlas_quantum", "0"},
        {"parbs_cap", "0"},
        {"interval", "0"}, // every CPU cycle would close an interval.
        {"measure", "0"},
        {"dbp_light_banks_per_thread", "0"},
    };
    for (const auto &[key, value] : cases) {
        Config cfg;
        cfg.set(key, value);
        EXPECT_EXIT(makeRunConfig(cfg), ::testing::ExitedWithCode(1),
                    "for key " + key + " is out of range")
            << key << '=' << value;
    }

    // Geometry and timing are checked whole, before any job builds a
    // machine from them.
    const std::tuple<std::string, std::string, std::string> machines[] = {
        {"rows", "3", "invalid DRAM geometry: .*powers of two"},
        {"timing", "bogus", "unknown DRAM timing preset 'bogus'"},
        {"trfc", "1", "invalid DRAM timing: .*tRFCpb"},
    };
    for (const auto &[key, value, message] : machines) {
        Config cfg;
        cfg.set(key, value);
        EXPECT_EXIT(makeRunConfig(cfg), ::testing::ExitedWithCode(1),
                    message)
            << key << '=' << value;
    }

    Config edge;
    edge.parseToken("write_queue=48");
    edge.parseToken("tcm_cluster_thresh=1");
    EXPECT_EQ(makeRunConfig(edge).base.controller.writeQueueSize, 48u);
}

TEST(ParamTable, SubarrayColorRequiresSalp)
{
    Config cfg;
    cfg.parseToken("subarray_color=1");
    EXPECT_EXIT(makeRunConfig(cfg), ::testing::ExitedWithCode(1),
                "subarray_color=1 requires a salp mode");
    cfg.parseToken("salp=salp2");
    EXPECT_TRUE(makeRunConfig(cfg).base.subarrayColoring);
}

/** Backticked names in the first column of README.md's key table. */
std::set<std::string>
readmeTableKeys()
{
    std::ifstream in(std::string(DBPSIM_SOURCE_ROOT) + "/README.md");
    std::set<std::string> keys;
    bool in_section = false;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("## ", 0) == 0)
            in_section = line == "## Common configuration keys";
        if (!in_section || line.rfind("| `", 0) != 0)
            continue;
        const std::string cell = line.substr(1, line.find('|', 1) - 1);
        std::size_t open = cell.find('`');
        while (open != std::string::npos) {
            std::size_t close = cell.find('`', open + 1);
            if (close == std::string::npos)
                break;
            keys.insert(cell.substr(open + 1, close - open - 1));
            open = cell.find('`', close + 1);
        }
    }
    return keys;
}

TEST(ParamTable, ReadmeKeyTableMatchesTheTable)
{
    const std::set<std::string> documented = readmeTableKeys();
    ASSERT_FALSE(documented.empty()) << "README.md key table not found";
    std::set<std::string> table;
    for (const ParamRow &row : paramTable())
        table.insert(row.key);
    for (const std::string &key : table)
        EXPECT_TRUE(documented.count(key))
            << key << " has no row in README.md's key table";
    for (const std::string &key : documented)
        EXPECT_TRUE(table.count(key))
            << "README.md's key table names " << key
            << ", which the parameter table lacks";
}

} // namespace
} // namespace dbpsim
