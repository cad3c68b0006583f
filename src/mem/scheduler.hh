/**
 * @file
 * The memory-scheduler plug-in interface.
 *
 * Controllers own the mechanics (per-cycle command generation, timing
 * legality, write drain); a Scheduler supplies the *policy*: a strict
 * priority order over queued read requests, plus periodic state
 * updates (cluster/rank recomputation for TCM, batching for PAR-BS,
 * service accounting for ATLAS). One scheduler instance is shared by
 * all channel controllers, because ranking policies are machine-wide.
 */

#ifndef DBPSIM_MEM_SCHEDULER_HH
#define DBPSIM_MEM_SCHEDULER_HH

#include <functional>
#include <string>
#include <vector>

#include "dram/channel.hh"
#include "mem/request.hh"
#include "mem/thread_profile.hh"

namespace dbpsim {

/**
 * Per-decision context handed to the comparator.
 */
struct SchedContext
{
    const DramChannel &channel; ///< channel the decision is for.
    Cycle now;                  ///< current memory-bus cycle.

    /** Is @p req a row-buffer hit right now? */
    bool
    rowHit(const MemRequest &req) const
    {
        return channel.rowOpen(req.coord.rank, req.coord.bank,
                               req.coord.row);
    }
};

/**
 * Read access to a controller's pending read queue (PAR-BS batching).
 */
class QueueView
{
  public:
    virtual ~QueueView() = default;

    /** Visit every queued (not yet issued) read request. */
    virtual void
    forEachPendingRead(const std::function<void(MemRequest &)> &fn) = 0;
};

/**
 * Abstract scheduling policy.
 */
class Scheduler
{
  public:
    virtual ~Scheduler() = default;

    /** Policy name ("fr-fcfs", "tcm", ...). */
    virtual std::string name() const = 0;

    /**
     * Strict "a before b" priority over read requests. Must be a
     * strict weak ordering; controllers use it both to pick the next
     * request and to guard precharges (a request may close a row only
     * if no higher-priority request wants it).
     */
    virtual bool higherPriority(const MemRequest &a, const MemRequest &b,
                                const SchedContext &ctx) const = 0;

    /** Called once per memory-bus cycle by the system. */
    virtual void tick(Cycle now) { (void)now; }

    /**
     * The first memory cycle at or after @p now whose tick() may
     * change anything, if no other call comes first: a system may
     * leave out the tick() calls before it. kNeverCycle when tick()
     * does nothing. Default: @p now, so every cycle ticks.
     */
    virtual Cycle nextTickAt(Cycle now) const { return now; }

    /** A read entered some controller's queue. */
    virtual void onEnqueue(MemRequest &req) { (void)req; }

    /** A read left a queue (its column command issued). */
    virtual void onDequeue(const MemRequest &req) { (void)req; }

    /** A read's data returned. */
    virtual void
    onComplete(const MemRequest &req, Cycle now)
    {
        (void)req;
        (void)now;
    }

    /** New interval profiles are available (TCM clustering). */
    virtual void
    onIntervalProfiles(const std::vector<ThreadMemProfile> &profiles)
    {
        (void)profiles;
    }

    /** Give batch-forming schedulers access to all read queues. */
    virtual void attachQueueView(QueueView *view) { (void)view; }
};

/**
 * Age order shared by every policy as the final tiebreak: true when
 * @p a is strictly older than @p b.
 */
inline bool
olderFirst(const MemRequest &a, const MemRequest &b)
{
    if (a.enqueueCycle != b.enqueueCycle)
        return a.enqueueCycle < b.enqueueCycle;
    return a.id < b.id;
}

} // namespace dbpsim

#endif // DBPSIM_MEM_SCHEDULER_HH
