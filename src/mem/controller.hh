/**
 * @file
 * Per-channel memory controller.
 *
 * Owns the read/write request queues and a DramChannel, and turns the
 * scheduler's priority order into legal DDR command sequences:
 * precharge (guarded so no higher-priority row hit is destroyed),
 * activate, column command. Handles refresh with priority, write-drain
 * hysteresis with watermarks, write-to-read forwarding, and per-thread
 * service statistics. At most one command issues per bus cycle (the
 * command-bus constraint).
 */

#ifndef DBPSIM_MEM_CONTROLLER_HH
#define DBPSIM_MEM_CONTROLLER_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "dram/addr_map.hh"
#include "dram/channel.hh"
#include "dram/refresh.hh"
#include "mem/profiler.hh"
#include "mem/request.hh"
#include "mem/scheduler.hh"

namespace dbpsim {

/**
 * Row-buffer management policy.
 */
enum class PagePolicy
{
    Open,         ///< leave rows open; FR-FCFS exploits hits.
    Closed,       ///< auto-precharge when no queued request wants the row.
    OpenAdaptive, ///< keep rows open, but close a row idle beyond
                  ///< rowIdleTimeout with no queued requester —
                  ///< hides tRP for the next conflict while keeping
                  ///< hit streaks intact.
};

/**
 * Controller configuration.
 */
struct ControllerParams
{
    unsigned numThreads = 8;       ///< for per-thread stats sizing.
    unsigned readQueueSize = 64;   ///< read queue capacity.
    unsigned writeQueueSize = 64;  ///< write queue capacity.
    unsigned writeHiWatermark = 48;///< enter write-drain mode at/above.
    unsigned writeLoWatermark = 16;///< leave write-drain mode at/below.
    unsigned idleWriteThresh = 8;  ///< drain opportunistically when
                                   ///< reads are absent and this many
                                   ///< writes wait.
    // dbplint:allow(cycle-literal) reason=store-to-load forward latency is a controller design parameter (queue CAM lookup), not a DRAM datasheet value
    Cycle forwardLatency = 2;      ///< write-to-read forward latency.
    PagePolicy pagePolicy = PagePolicy::Open;
    // dbplint:allow(cycle-literal) reason=adaptive page-policy tuning default, overridden by config key row_idle_timeout (fig18 sweeps it)
    Cycle rowIdleTimeout = 100;    ///< OpenAdaptive idle-close bound.
    RefreshParams refresh;         ///< refresh mode / window / DARP.
    SalpMode salp = SalpMode::None; ///< subarray-level parallelism.

    /** Record no quiet horizon, so every tick runs in full: the
     *  reference the skips are tested against (tests only). */
    bool fullTicks = false;
};

/**
 * Per-thread service counters kept by each controller.
 */
struct ControllerThreadStats
{
    std::uint64_t reads = 0;        ///< read column commands issued.
    std::uint64_t writes = 0;       ///< write column commands issued.
    std::uint64_t rowHits = 0;      ///< served without an ACTIVATE.
    std::uint64_t rowMisses = 0;    ///< needed an ACTIVATE (and maybe PRE).
    std::uint64_t readsCompleted = 0;
    std::uint64_t readLatencySum = 0; ///< bus cycles, enqueue -> data.
};

/**
 * The controller.
 */
class MemoryController : public QueueView, public RefreshDemandView
{
  public:
    /**
     * @param channel_id This controller's channel index.
     * @param map Shared address map (bank-color arithmetic).
     * @param timing DDR timing preset.
     * @param params Queue/drain configuration.
     * @param scheduler Shared scheduling policy (not owned).
     * @param profiler Shared run-time profiler; may be null.
     */
    MemoryController(unsigned channel_id, const AddressMap &map,
                     const DramTiming &timing, ControllerParams params,
                     Scheduler *scheduler, ThreadProfiler *profiler);

    /**
     * Enqueue a load. Returns false when the read queue is full
     * (backpressure: the core retries next cycle).
     */
    bool enqueueRead(Addr paddr, ThreadId tid, MemClient *client,
                     std::uint64_t tag, Cycle now);

    /**
     * Enqueue a store (posted; no completion callback). Returns false
     * when the write queue is full.
     */
    bool enqueueWrite(Addr paddr, ThreadId tid, Cycle now);

    /**
     * Advance one memory-bus cycle: completions, refresh, one command.
     * Returns at once before wakeAt().
     */
    void
    tick(Cycle now)
    {
        if (now >= wakeAt_)
            tickAwake(now);
    }

    /**
     * The first memory cycle whose tick() may do anything; at or
     * before the current cycle while awake. Set by a tick that issued
     * nothing, cleared by every enqueue call and migration charge.
     */
    Cycle wakeAt() const { return wakeAt_; }

    /** QueueView: iterate queued (not yet issued) reads. */
    void forEachPendingRead(
        const std::function<void(MemRequest &)> &fn) override;

    /** RefreshDemandView: queued read/write for (rank, bank)? */
    bool hasBankDemand(unsigned rank, unsigned bank) const override;

    /** RefreshDemandView: queued read/write for the rank at all? */
    bool hasRankDemand(unsigned rank) const override;

    /** Charge page-migration traffic to a bank (cost model). */
    void applyMigrationCost(unsigned rank, unsigned bank, Cycle now,
                            Cycle busy_cycles);

    /** Queued reads. */
    std::size_t readQueueDepth() const { return readQ_.size(); }

    /** Queued writes. */
    std::size_t writeQueueDepth() const { return writeQ_.size(); }

    /** True while draining writes. */
    bool inWriteMode() const { return writeMode_; }

    /** The DRAM channel (tests, energy reporting). */
    const DramChannel &channel() const { return channel_; }

    /**
     * Attach a command observer (protocol checker) to this
     * controller's channel; every DRAM command issued on behalf of a
     * request carries the requesting thread id, controller-internal
     * commands carry kInvalidThread.
     */
    void setCommandObserver(CommandObserver *observer)
    {
        channel_.setObserver(observer);
    }

    /** Per-thread counters. */
    const ControllerThreadStats &threadStats(ThreadId tid) const;

    /**
     * Per-thread read-latency histogram (bus cycles, 8-cycle buckets,
     * overflow beyond 1024): the tail-latency view of interference.
     */
    const StatHistogram &latencyHistogram(ThreadId tid) const;

    /** Sum of all queued+inflight requests (drain checks). */
    std::size_t pendingRequests() const
    {
        return readQ_.size() + writeQ_.size() + inflight_.size();
    }

    /** @name Aggregate stats. */
    /// @{
    StatScalar statIdleRowCloses; ///< OpenAdaptive precharges issued.
    StatScalar statReadsEnqueued;
    StatScalar statWritesEnqueued;
    StatScalar statWriteForwards;  ///< reads served from the write queue.
    StatScalar statWriteCoalesced; ///< writes merged into queued writes.
    StatScalar statReadQueueFull;
    StatScalar statWriteQueueFull;
    /// @}

  private:
    /**
     * The key of a skipped tick: nothing the skipped work tests can
     * come out differently before `until` while the channel's
     * generation() and the count of queue pushes stay as recorded.
     */
    struct QuietKey
    {
        Cycle until = 0;
        std::uint64_t generation = 0;
        std::uint64_t pushes = 0;

        bool
        holds(Cycle now, std::uint64_t generation_now,
              std::uint64_t pushes_now) const
        {
            return now < until && generation_now == generation &&
                   pushes_now == pushes;
        }
    };

    /** A key that holds until @p until for the channel and queues as
     *  they are now; under fullTicks one that never holds. */
    QuietKey
    quietKey(Cycle until) const
    {
        return QuietKey{params_.fullTicks ? 0 : until,
                        channel_.generation(), pushes_};
    }

    /**
     * issueFromQueue's state for one (bank slot, subarray) group in
     * the current scan, valid while `stamp` equals scans_ and filled
     * lazily, at most once per scan. Every queued request of a group
     * needs the same command kind with the same readiness: a row hit
     * its column command (SA_SEL under MASA when the subarray is not
     * designated), a miss a PRE of the row in the way or, with none,
     * an ACT of its own row. The entry of a slot's subarray 0 also
     * holds the slot's precharge guard.
     */
    struct ScanGroup
    {
        std::uint64_t stamp = 0;
        bool open = false;          ///< the subarray holds a row...
        std::uint64_t openRow = 0;  ///< ...this one.
        bool hitKnown = false;      ///< hitCmd/hitReady computed.
        bool missKnown = false;     ///< missCmd/missRow/missReady too.
        DramCmd hitCmd = DramCmd::Read;
        DramCmd missCmd = DramCmd::Activate;
        std::uint64_t missRow = 0;  ///< the PRE's row.
        Cycle hitReady = 0;
        Cycle missReady = 0;
        /** Slot guard: the best queued row hit and the best legal
         *  PRE request of the slot, with its PRE's row. */
        const MemRequest *bestHit = nullptr;
        const MemRequest *bestPre = nullptr;
        std::uint64_t bestPreRow = 0;
    };

    /** tick() past wakeAt(). */
    void tickAwake(Cycle now);

    /**
     * After a tick that issued nothing: sleep until the first cycle
     * whose tick may do anything (see wakeAt_).
     */
    void sleepIfQuiet();

    /** Deliver finished reads at or before @p now. */
    void completeReads(Cycle now);

    /** The write-drain mode updateDrainMode() would set now. */
    bool nextDrainMode() const;

    /** Recompute write-drain mode from queue depths. */
    void updateDrainMode() { writeMode_ = nextDrainMode(); }

    /**
     * Pick and issue one command from @p queue (current mode).
     * Returns true if a command issued. Returns false unscanned while
     * the last scan that issued nothing still holds (idle_).
     */
    bool issueFromQueue(std::vector<MemRequest> &queue, bool writes,
                        Cycle now);

    /** The current scan's entry of (@p rank, @p bank, subarray
     *  @p si), reset on its first use in the scan. */
    ScanGroup &scanGroup(unsigned rank, unsigned bank, unsigned si);

    /** Machine-wide color of a coordinate (profiler indexing). */
    unsigned colorOf(const DramCoord &coord) const;

    /** Index of (@p rank, @p bank) in the per-bank vectors. */
    std::size_t bankSlot(unsigned rank, unsigned bank) const
    {
        return rank * channel_.numBanks() + bank;
    }

    const AddressMap &map_;
    ControllerParams params_;
    DramChannel channel_;
    RefreshEngine refresh_;
    Scheduler *scheduler_;
    ThreadProfiler *profiler_;

    std::vector<MemRequest> readQ_;
    std::vector<MemRequest> writeQ_;

    /**
     * Queued reads plus writes per bank slot and per rank: raised
     * where readQ_/writeQ_ grow, lowered at the one erase in
     * issueFromQueue. They answer the RefreshDemandView in O(1).
     */
    std::vector<unsigned> bankDemand_;
    std::vector<unsigned> rankDemand_;

    unsigned subarrays_; ///< subarrays per bank in the channel.

    /** Per-scan group state, [bankSlot * subarrays_ + subarray];
     *  stamped, never cleared. */
    std::vector<ScanGroup> scan_;
    std::uint64_t scans_ = 0; ///< scans so far (the stamps).

    /** Slots with a legal PRE request in the current scan. */
    std::vector<std::size_t> preSlots_;

    /** readQ_/writeQ_ push_backs so far (both skips' key). */
    std::uint64_t pushes_ = 0;

    /**
     * The last refresh tick that issued nothing, with
     * refresh_.quietUntil() as its horizon. Exact because the engine
     * reads only the cycle, its own schedule (changed only by its own
     * commands), channel state and the queued demand, whose every
     * change is a push or an erase that issues a command.
     */
    QuietKey refreshQuiet_;

    /**
     * The last scan that issued nothing: no queued request can issue
     * before its horizon while the key and the drain mode
     * (idleWrites_) hold. Exact because a command's readiness depends
     * only on channel state, a request's next command only on its
     * bank's state and the queue, and every erase from a queue issues
     * a command.
     */
    QuietKey idle_;
    bool idleWrites_ = false;

    /**
     * Before this cycle a tick is a no-op: no read or forward
     * completes, the refresh horizon holds, the active queue is empty
     * or its scan horizon holds, and the drain mode is at a fixed
     * point of updateDrainMode(), so the next tick's mode is this
     * tick's. Exact because the two keys hold while nothing issues and
     * nothing is pushed, and every call that could change what a tick
     * sees (an enqueue, forwarded or not, and a migration charge)
     * clears it. Never set under OpenAdaptive, whose idle-row closes
     * depend on the cycle alone, nor under fullTicks, whose keys never
     * hold.
     */
    Cycle wakeAt_ = 0;

    /** A read issued to DRAM, waiting for its data burst to finish. */
    struct Inflight
    {
        Cycle doneAt;
        MemClient *client;
        std::uint64_t tag;
        ThreadId tid;
        unsigned color;
        std::uint64_t row;
        Cycle enqueueCycle;
    };
    std::vector<Inflight> inflight_;

    /** Forwarded reads complete on a short fixed delay. */
    std::vector<Inflight> forwarded_;

    /** Close rows idle past the timeout (OpenAdaptive); true if a
     *  precharge was issued. */
    bool closeIdleRows(Cycle now);

    std::vector<ControllerThreadStats> threadStats_;
    std::vector<StatHistogram> latencyHist_;

    /** Last column-command cycle per (rank, bank) (OpenAdaptive). */
    std::vector<Cycle> lastColumnUse_;
    bool writeMode_ = false;
    std::uint64_t nextReqId_ = 0;
};

} // namespace dbpsim

#endif // DBPSIM_MEM_CONTROLLER_HH
