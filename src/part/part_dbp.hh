/**
 * @file
 * Dynamic Bank Partitioning (Xie et al., HPCA 2014) — the paper's
 * contribution.
 *
 * Every profiling interval the policy passes the profiles through an
 * interval gate (warm-up, EWMA smoothing, cool-down; DbpIntervalGate)
 * and, when the gate lets the interval through:
 *  1. classifies threads by memory intensity: light threads
 *     (MPKI < lightMpki) are grouped into one small shared color set —
 *     they access DRAM too rarely to interfere with each other, and
 *     giving each a private share would waste banks;
 *  2. starts heavy threads from the equal split (bank utility is
 *     concave — fig2 — so the equal share is near-optimal for threads
 *     of similar behaviour), then identifies streaming threads
 *     (intrinsic shadow RBHR >= streamRbhr): they run from the row
 *     buffer, keep only streamBanks banks, and donate the rest;
 *  3. redistributes the donated banks to the remaining heavy threads
 *     in proportion to row-miss intensity, MPKI * (1 - RBHR) — the
 *     partition-invariant measure of bank-service demand (measured
 *     BLP is censored by the current partition and useless here);
 *  4. applies hysteresis: a new assignment is adopted only when some
 *     thread's bank count moves by at least hysteresisBanks, keeping
 *     migration costs bounded.
 *
 * Steps 1-3 are dbpBankShares(), which DBP-MCP also runs once per MCP
 * channel group. Color sets are carved as contiguous slices of the
 * channel-spreading color order, so every thread's banks span
 * channels and ranks, and small demand changes move few banks.
 */

#ifndef DBPSIM_PART_PART_DBP_HH
#define DBPSIM_PART_PART_DBP_HH

#include <cstdint>

#include "part/policy.hh"

namespace dbpsim {

/**
 * DBP tuning knobs.
 */
struct DbpParams
{
    /** Threads below this MPKI are "light" and share one color set. */
    double lightMpki = 1.0;

    /** Shared banks granted per light thread (ceil of sum, >= 1). */
    double lightBanksPerThread = 1.0;

    /**
     * Threads whose intrinsic row-buffer hit rate is at or above this
     * are streamers: they run from the row buffer and donate their
     * surplus banks.
     */
    double streamRbhr = 0.9;

    /** Banks a streaming donor keeps. */
    unsigned streamBanks = 2;

    /**
     * A donor's distinct-row parallelism must not exceed this: wide
     * multi-stream apps have high RBHR but need a bank per stream.
     */
    double maxDonorRows = 2.5;

    /**
     * Ablation switch: ignore the measured demand and treat every
     * heavy thread as equal (isolates the value of the estimator).
     */
    bool flatDemand = false;

    /** Adopt a new partition only when some thread's bank count
     *  changes by at least this many banks (absorbs one-bank jitter
     *  in the BLP estimate). */
    unsigned hysteresisBanks = 2;

    /** Cap on the light group size as a fraction of all banks. */
    double lightShareCap = 0.25;

    /**
     * EWMA weight on history when smoothing the per-thread MLP/RBHR
     * estimates across intervals (0 = use raw interval values).
     * Smoothing keeps one noisy interval from reshuffling banks.
     */
    double ewmaAlpha = 0.5;

    /** Minimum profiling intervals between adopted repartitions. */
    unsigned cooldownIntervals = 2;

    /**
     * Ignore this many initial profiling intervals: cold-start
     * profiles (window fill, first-touch allocation bursts) are not
     * representative, and acting on them scatters pages that later
     * have to be migrated back.
     */
    unsigned warmupIntervals = 2;
};

/**
 * DBP's bank-share split (steps 1-3 above) of @p banks banks among
 * @p members, ascending indices into @p profiles. Returns one count
 * per member; the light group, counted once, and the heavy counts sum
 * to @p banks. Light members report the light group's size (@p banks
 * when all are light); when heavy members outnumber the banks left,
 * each reports 1 and the counts overflow @p banks.
 */
std::vector<unsigned>
dbpBankShares(const DbpParams &params,
              const std::vector<ThreadMemProfile> &profiles,
              const std::vector<unsigned> &members, unsigned banks);

/**
 * The interval gate of both DBP policies: it ignores the first
 * warmupIntervals profiles, smooths the estimator's inputs, holds
 * decisions back for cooldownIntervals after each adoption, and keeps
 * the adopted partition's light flags.
 */
class DbpIntervalGate
{
  public:
    DbpIntervalGate(unsigned num_threads, const DbpParams &params);

    /**
     * Take one interval's profiles. Returns the smoothed profiles when
     * the policy may repartition now, or nullptr while warming up or
     * cooling down. Only mpki, rowBufferHitRate and rowParallelism
     * are smoothed; every other field is the latest interval's.
     */
    const std::vector<ThreadMemProfile> *
    admit(const std::vector<ThreadMemProfile> &profiles);

    /** Light flags of the last admitted profiles. */
    std::vector<bool> lightNow() const;

    /** The policy adopted a partition built from the last admitted
     *  profiles: restart the cool-down, keep their light flags. */
    void adopt();

    /** Light flag of @p thread in the adopted partition (false before
     *  the first adoption). */
    bool adoptedLight(unsigned thread) const
    {
        return adoptedLight_[thread];
    }

    /** Repartitions adopted so far. */
    std::uint64_t repartitions() const { return repartitions_; }

  private:
    DbpParams params_;
    std::vector<ThreadMemProfile> smoothed_; ///< empty until seeded.
    std::vector<bool> adoptedLight_;
    unsigned warmupLeft_;
    unsigned sinceRepartition_ = 0;
    std::uint64_t repartitions_ = 0;
};

/**
 * The DBP policy.
 */
class DbpPolicy : public PartitionPolicy
{
  public:
    /**
     * @param num_threads Hardware threads.
     * @param channels / @p ranks / @p banks Machine geometry.
     * @param params Tuning knobs.
     * @param subarrays Colors per bank (subarray coloring). Demand
     *        estimation stays in bank units — the paper's estimator
     *        reasons about bank-level parallelism — and shares are
     *        scaled to whole banks' worth of subarray colors when the
     *        assignment is carved.
     */
    DbpPolicy(unsigned num_threads, unsigned channels, unsigned ranks,
              unsigned banks, DbpParams params = {},
              unsigned subarrays = 1);

    std::string name() const override { return "dbp"; }

    /** Starts from the equal partition (no profile yet). */
    PartitionAssignment initialAssignment() override;

    std::optional<PartitionAssignment>
    onInterval(const std::vector<ThreadMemProfile> &profiles) override;

    /** Heavy threads migrate; light threads' leftovers stay put. */
    bool shouldMigrate(unsigned thread) const override;

    /**
     * Pure demand estimation (exposed for tests and the demand-
     * estimation figure): per-thread bank counts, summing to the
     * machine's bank total; light threads report their shared group's
     * size.
     */
    std::vector<unsigned>
    bankShares(const std::vector<ThreadMemProfile> &profiles) const;

    /** Repartitions actually adopted so far. */
    std::uint64_t repartitions() const { return gate_.repartitions(); }

  private:
    /**
     * Build color sets from per-thread counts + light membership,
     * incrementally: entities keep the colors they already own and
     * only the delta changes hands (bounds page migration by the
     * partition *change*, not the machine size).
     */
    PartitionAssignment
    buildAssignment(const std::vector<unsigned> &counts,
                    const std::vector<bool> &light);

    /** Drop all ownership state (fresh-assignment paths). */
    void clearOwnership();

    unsigned numThreads_;
    ColorLayout layout_;
    DbpParams params_;

    /** Each color's position in the channel-spreading order. */
    std::vector<unsigned> spreadPos_;

    /** Colors owned per heavy thread, in acquisition order. */
    std::vector<std::vector<unsigned>> owned_;

    /** Colors of the shared light set, in acquisition order. */
    std::vector<unsigned> lightSet_;

    /** Bank counts of the currently adopted partition (hysteresis). */
    std::vector<unsigned> currentCounts_;

    DbpIntervalGate gate_;
};

} // namespace dbpsim

#endif // DBPSIM_PART_PART_DBP_HH
