/**
 * @file
 * FR-FCFS (Rixner et al., ISCA 2000): row-buffer hits first, then
 * oldest first. The standard throughput-oriented baseline; thread
 * oblivious, hence unfair under interference.
 */

#ifndef DBPSIM_MEM_SCHED_FRFCFS_HH
#define DBPSIM_MEM_SCHED_FRFCFS_HH

#include "mem/scheduler.hh"

namespace dbpsim {

/**
 * First-ready FCFS scheduling.
 */
class FrFcfsScheduler : public Scheduler
{
  public:
    std::string name() const override { return "fr-fcfs"; }

    Cycle
    nextTickAt(Cycle now) const override
    {
        (void)now;
        return kNeverCycle; // tick() does nothing.
    }

    bool
    higherPriority(const MemRequest &a, const MemRequest &b,
                   const SchedContext &ctx) const override
    {
        bool ha = ctx.rowHit(a);
        bool hb = ctx.rowHit(b);
        if (ha != hb)
            return ha;
        return olderFirst(a, b);
    }
};

} // namespace dbpsim

#endif // DBPSIM_MEM_SCHED_FRFCFS_HH
