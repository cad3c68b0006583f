/**
 * @file
 * Partition-policy construction by name.
 */

#ifndef DBPSIM_PART_PART_FACTORY_HH
#define DBPSIM_PART_PART_FACTORY_HH

#include <memory>
#include <string>
#include <vector>

#include "dram/addr_map.hh"
#include "part/part_dbp.hh"
#include "part/part_mcp.hh"
#include "part/policy.hh"

namespace dbpsim {

/**
 * Everything policy constructors might need.
 */
struct PartitionInit
{
    unsigned numThreads = 8;
    DramGeometry geometry;
    DbpParams dbp;
    McpParams mcp;

    /**
     * Colors per bank. 1 = bank-granular coloring (the paper's
     * machine); geometry.subarraysPerBank when the address map colors
     * by subarray (subarray_color=1 with a SALP mode).
     */
    unsigned coloredSubarrays = 1;
};

/** Names accepted by makePartitionPolicy, in a stable order. */
const std::vector<std::string> &partitionPolicyNames();

/**
 * Build a policy: "none", "ubp", "dbp", "mcp" or "dbp-mcp". fatal()s
 * on unknown names.
 */
std::unique_ptr<PartitionPolicy>
makePartitionPolicy(const std::string &name, const PartitionInit &init);

} // namespace dbpsim

#endif // DBPSIM_PART_PART_FACTORY_HH
