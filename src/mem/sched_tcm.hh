/**
 * @file
 * TCM — Thread Cluster Memory scheduling (Kim et al., MICRO 2010), the
 * scheduler DBP composes with (DBP-TCM).
 *
 * Every profiling interval, threads are split into a latency-sensitive
 * cluster (the lowest-MPKI threads whose combined bandwidth stays
 * under clusterThresh of the total) and a bandwidth-sensitive cluster.
 * The latency cluster is always served first — its threads rarely load
 * the memory system, so prioritizing them costs almost no bandwidth
 * while making them immune to interference. Within the latency
 * cluster, lower MPKI ranks higher. Within the bandwidth cluster,
 * threads are ranked by "niceness" (high bank-level parallelism =
 * vulnerable = nice; high row-buffer locality = bank-hogging = not
 * nice) and the ranking is rotated every shuffle interval so heavy
 * threads time-share the top slot (insertion shuffling in the paper;
 * rotation is the standard simplification and preserves the
 * time-sharing behaviour).
 */

#ifndef DBPSIM_MEM_SCHED_TCM_HH
#define DBPSIM_MEM_SCHED_TCM_HH

#include <cstdint>
#include <vector>

#include "mem/scheduler.hh"

namespace dbpsim {

/**
 * TCM configuration.
 */
struct TcmParams
{
    /**
     * Max fraction of total interval bandwidth the latency cluster
     * may consume.
     */
    double clusterThresh = 0.10;

    /** Bandwidth-cluster rank rotation period, in bus cycles. */
    // dbplint:allow(cycle-literal) reason=TCM paper shuffle period, overridden by config key tcm_shuffle
    Cycle shuffleInterval = 800;
};

/**
 * The TCM scheduler.
 */
class TcmScheduler : public Scheduler
{
  public:
    /** @param num_threads Hardware threads. */
    explicit TcmScheduler(unsigned num_threads, TcmParams params = {});

    std::string name() const override { return "tcm"; }

    bool higherPriority(const MemRequest &a, const MemRequest &b,
                        const SchedContext &ctx) const override;

    void tick(Cycle now) override;

    /** The next shuffle. */
    Cycle
    nextTickAt(Cycle now) const override
    {
        (void)now;
        return nextShuffle_;
    }
    void onIntervalProfiles(
        const std::vector<ThreadMemProfile> &profiles) override;

    /** Is a thread currently in the latency-sensitive cluster? */
    bool inLatencyCluster(ThreadId tid) const;

    /** Current rank of a thread (higher = served first; tests). */
    int rankOf(ThreadId tid) const;

  private:
    /** Recompute ranks from cluster membership + bw-cluster order. */
    void rebuildRanks();

    unsigned numThreads_;
    TcmParams params_;

    std::vector<bool> latency_;
    std::vector<unsigned> latOrder_; ///< latency cluster, best first.
    std::vector<unsigned> bwOrder_; ///< bw-cluster threads, best first.
    std::vector<int> rank_;
    Cycle nextShuffle_;
};

} // namespace dbpsim

#endif // DBPSIM_MEM_SCHED_TCM_HH
