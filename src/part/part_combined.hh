/**
 * @file
 * DBP-MCP — the composition the paper's "comprehensive approach"
 * discussion points toward: first split channels among behaviour
 * groups (MCP's classification removes the worst cross-group
 * interference and channel contention), then apply DBP's
 * donor/receiver bank split *within* each channel group (removing the
 * intra-group bank conflicts MCP leaves behind). Implemented as an
 * extension beyond the paper's evaluated schemes.
 *
 * It runs DBP's own interval gate and bank-share split
 * (DbpIntervalGate, dbpBankShares), the split once per channel group.
 * Unlike DBP it carves every adopted partition afresh and has no
 * hysteresis: any change in the carve is adopted.
 */

#ifndef DBPSIM_PART_PART_COMBINED_HH
#define DBPSIM_PART_PART_COMBINED_HH

#include "part/part_dbp.hh"
#include "part/part_mcp.hh"
#include "part/policy.hh"

namespace dbpsim {

/**
 * The combined channel+bank partitioning policy.
 */
class CombinedPolicy : public PartitionPolicy
{
  public:
    /**
     * @param num_threads Hardware threads.
     * @param channels / @p ranks / @p banks Machine geometry.
     * @param dbp DBP knobs (donor thresholds, smoothing, cool-down).
     * @param mcp MCP knobs (grouping thresholds).
     * @param subarrays Colors per bank (subarray coloring). Shares
     *        stay in banks and are carved as whole banks' worth of
     *        subarray colors, as in DBP.
     */
    CombinedPolicy(unsigned num_threads, unsigned channels,
                   unsigned ranks, unsigned banks, DbpParams dbp = {},
                   McpParams mcp = {}, unsigned subarrays = 1);

    std::string name() const override { return "dbp-mcp"; }

    PartitionAssignment initialAssignment() override;

    std::optional<PartitionAssignment>
    onInterval(const std::vector<ThreadMemProfile> &profiles) override;

    /** Light threads' leftovers stay put (as in DBP/MCP). */
    bool shouldMigrate(unsigned thread) const override;

    /** Adopted repartitions so far. */
    std::uint64_t repartitions() const { return gate_.repartitions(); }

  private:
    unsigned numThreads_;
    ColorLayout layout_;
    DbpParams dbpParams_;
    McpPolicy mcp_;
    DbpIntervalGate gate_;
    PartitionAssignment current_;
};

} // namespace dbpsim

#endif // DBPSIM_PART_PART_COMBINED_HH
