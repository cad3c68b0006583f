/**
 * @file
 * The partitioning-policy interface: a policy maps per-thread run-time
 * profiles to per-thread bank-color sets. The PartitionManager applies
 * assignments through the OS model (allocation constraints + page
 * migration); policies are pure decision logic, which keeps them unit
 * testable. ColorLayout is the one place that numbers the colors.
 */

#ifndef DBPSIM_PART_POLICY_HH
#define DBPSIM_PART_POLICY_HH

#include <optional>
#include <utility>
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
 * A policy that keeps one assignment for the whole run: "none" (every
 * thread may allocate everywhere) and "ubp" (the equal bank split DBP
 * improves on, which caps every thread's bank-level parallelism at
 * banks/threads regardless of need).
 */
class StaticPolicy : public PartitionPolicy
{
  public:
    StaticPolicy(std::string name, PartitionAssignment assignment)
        : name_(std::move(name)), assignment_(std::move(assignment))
    {
    }

    std::string name() const override { return name_; }

    PartitionAssignment initialAssignment() override { return assignment_; }

    std::optional<PartitionAssignment>
    onInterval(const std::vector<ThreadMemProfile> &profiles) override
    {
        (void)profiles;
        return std::nullopt;
    }

  private:
    std::string name_;
    PartitionAssignment assignment_;
};

/**
 * The machine's colors: one per bank, or one per (bank, subarray)
 * under subarray coloring, numbered as the address map numbers them
 * (channel, then rank, bank and subarray). Policies slice the
 * channel-spreading order, in which consecutive banks alternate
 * channel first, then rank, then bank index, so every slice has the
 * widest channel/rank spread (intra-thread parallelism). A bank's
 * subarrays are adjacent in that order: slices at whole-bank
 * multiples own whole banks, and policies that think in banks scale
 * their counts by subarrays().
 */
class ColorLayout
{
  public:
    ColorLayout(unsigned channels, unsigned ranks, unsigned banks,
                unsigned subarrays = 1);

    /** Machine-wide banks. */
    unsigned banks() const
    {
        return static_cast<unsigned>(spread_.size()) / subs_;
    }

    /** Colors per bank. */
    unsigned subarrays() const { return subs_; }

    /** Every color in channel-spreading order. */
    const std::vector<unsigned> &spread() const { return spread_; }

    /** Every color, ascending. */
    std::vector<unsigned> all() const;

    /** The colors of @p channel_list, in channel-spreading order. */
    std::vector<unsigned>
    ofChannels(const std::vector<unsigned> &channel_list) const;

    /**
     * The equal split: contiguous whole-bank slices of the spread
     * order, the remainder one bank each to the first threads. When
     * @p threads outnumber the banks, thread t gets bank t mod banks.
     */
    PartitionAssignment equalSplit(unsigned threads) const;

  private:
    unsigned colorsPerChannel_;
    unsigned subs_;
    std::vector<unsigned> spread_;
};

/**
 * Largest-remainder rounding. @p counts holds whole shares of the
 * exact values @p exact; raise the entries named in @p eligible by
 * one each, largest fractional part of @p exact first and ties to the
 * lower index, cycling through them until @p counts sums to @p total.
 */
void roundByLargestRemainder(std::vector<unsigned> &counts,
                             const std::vector<double> &exact,
                             std::vector<unsigned> eligible,
                             unsigned total);

} // namespace dbpsim

#endif // DBPSIM_PART_POLICY_HH
