/**
 * @file
 * The partitioning-policy interface: a policy maps per-thread run-time
 * profiles to per-thread bank-color sets. The PartitionManager applies
 * assignments through the OS model (allocation constraints + page
 * migration); policies are pure decision logic, which keeps them unit
 * testable.
 */

#ifndef DBPSIM_PART_POLICY_HH
#define DBPSIM_PART_POLICY_HH

#include <optional>
#include <string>
#include <vector>

#include "mem/thread_profile.hh"

namespace dbpsim {

/** One color set per thread. */
using PartitionAssignment = std::vector<std::vector<unsigned>>;

/**
 * Abstract partitioning policy.
 */
class PartitionPolicy
{
  public:
    virtual ~PartitionPolicy() = default;

    /** Policy name ("none", "ubp", "dbp", "mcp", "dbp-mcp"). */
    virtual std::string name() const = 0;

    /** Assignment to apply before any profile exists. */
    virtual PartitionAssignment initialAssignment() = 0;

    /**
     * New interval profiles are in. Return a fresh assignment to
     * apply, or nullopt to keep the current one (static policies
     * always return nullopt; DBP returns nullopt under hysteresis).
     */
    virtual std::optional<PartitionAssignment>
    onInterval(const std::vector<ThreadMemProfile> &profiles) = 0;

    /**
     * Should @p thread's already-allocated pages be migrated into its
     * color set? Policies return false for threads whose leftover
     * pages cause negligible interference (DBP/MCP: light threads),
     * sparing the DRAM the copy traffic.
     */
    virtual bool
    shouldMigrate(unsigned thread) const
    {
        (void)thread;
        return true;
    }
};

/**
 * Enumerate the machine colors in channel-spreading order: consecutive
 * positions alternate channel first, then rank, then bank index.
 * Slicing this sequence gives every slice the widest possible
 * channel/rank spread (preserves intra-thread parallelism).
 *
 * With subarray coloring (@p subarrays > 1) each bank contributes
 * @p subarrays consecutive colors, so positions [k*subarrays,
 * (k+1)*subarrays) are the subarrays of the k-th bank of the spread
 * sequence: slices at whole-bank multiples still own whole banks, and
 * policies that think in bank units scale their counts by
 * @p subarrays.
 */
std::vector<unsigned> channelSpreadColorOrder(unsigned channels,
                                              unsigned ranks,
                                              unsigned banks,
                                              unsigned subarrays = 1);

} // namespace dbpsim

#endif // DBPSIM_PART_POLICY_HH
