/**
 * @file
 * Memory Channel Partitioning (Muralidhara et al., MICRO 2011), the
 * comparison point DBP beats on fairness.
 *
 * Threads are grouped by profiled behaviour: low memory intensity
 * (MPKI < lowMpki), high intensity with high row-buffer locality
 * (RBHR >= highRbl), and high intensity with low locality. Channels
 * are then divided among the groups proportionally to each group's
 * measured bandwidth demand (at least one channel per non-empty
 * group), and every thread may use all banks of its group's channels.
 * Separating the two intensive groups removes their mutual row-buffer
 * interference, but packing all intensive threads of a group into a
 * channel subset physically concentrates their contention — the
 * unfairness the DBP paper calls out (claim C5).
 */

#ifndef DBPSIM_PART_PART_MCP_HH
#define DBPSIM_PART_PART_MCP_HH

#include "part/policy.hh"

namespace dbpsim {

/**
 * MCP tuning knobs.
 */
struct McpParams
{
    /** Below this MPKI a thread is in the low-intensity group. */
    double lowMpki = 1.5;

    /** At/above this shadow row-buffer hit rate -> high-RBL group. */
    double highRbl = 0.75;
};

/**
 * The MCP policy.
 */
class McpPolicy : public PartitionPolicy
{
  public:
    /**
     * @param num_threads Hardware threads.
     * @param channels / @p ranks / @p banks Machine geometry.
     * @param subarrays Colors per bank (subarray coloring). MCP
     *        partitions at channel granularity, so a channel simply
     *        contributes ranks*banks*subarrays colors.
     */
    McpPolicy(unsigned num_threads, unsigned channels, unsigned ranks,
              unsigned banks, McpParams params = {},
              unsigned subarrays = 1);

    std::string name() const override { return "mcp"; }

    /** Everyone everywhere until the first profile arrives. */
    PartitionAssignment initialAssignment() override;

    std::optional<PartitionAssignment>
    onInterval(const std::vector<ThreadMemProfile> &profiles) override;

    /** Low-intensity threads' leftovers stay put. */
    bool shouldMigrate(unsigned thread) const override;

    /**
     * Pure channel-assignment logic (tests): per thread, the list of
     * channels it may allocate in.
     */
    std::vector<std::vector<unsigned>>
    channelAssignment(const std::vector<ThreadMemProfile> &profiles) const;

  private:
    unsigned numThreads_;
    unsigned channels_;
    ColorLayout layout_;
    McpParams params_;

    /** Last adopted per-thread channel sets (to skip no-op updates). */
    std::vector<std::vector<unsigned>> current_;

    /** Low-intensity classification of the current partition. */
    std::vector<bool> lowGroup_;
};

} // namespace dbpsim

#endif // DBPSIM_PART_PART_MCP_HH
