#include "part/part_factory.hh"

#include "common/log.hh"
#include "part/part_combined.hh"

namespace dbpsim {

const std::vector<std::string> &
partitionPolicyNames()
{
    static const std::vector<std::string> names = {
        "none", "ubp", "dbp", "mcp", "dbp-mcp",
    };
    return names;
}

std::unique_ptr<PartitionPolicy>
makePartitionPolicy(const std::string &name, const PartitionInit &init)
{
    const DramGeometry &g = init.geometry;
    const unsigned subs = init.coloredSubarrays;
    const ColorLayout layout(g.channels, g.ranksPerChannel, g.banksPerRank,
                             subs);
    if (name == "none")
        return std::make_unique<StaticPolicy>(
            name, PartitionAssignment(init.numThreads, layout.all()));
    if (name == "ubp")
        return std::make_unique<StaticPolicy>(
            name, layout.equalSplit(init.numThreads));
    if (name == "dbp")
        return std::make_unique<DbpPolicy>(init.numThreads, g.channels,
                                           g.ranksPerChannel,
                                           g.banksPerRank, init.dbp,
                                           subs);
    if (name == "mcp")
        return std::make_unique<McpPolicy>(init.numThreads, g.channels,
                                           g.ranksPerChannel,
                                           g.banksPerRank, init.mcp,
                                           subs);
    if (name == "dbp-mcp")
        return std::make_unique<CombinedPolicy>(
            init.numThreads, g.channels, g.ranksPerChannel,
            g.banksPerRank, init.dbp, init.mcp, subs);
    fatal("unknown partition policy '", name,
          "' (expected none|ubp|dbp|mcp|dbp-mcp)");
}

} // namespace dbpsim
