/**
 * @file
 * FCFS: strictly oldest-first. The weakest baseline; ignores row
 * locality entirely.
 */

#ifndef DBPSIM_MEM_SCHED_FCFS_HH
#define DBPSIM_MEM_SCHED_FCFS_HH

#include "mem/scheduler.hh"

namespace dbpsim {

/**
 * First-come first-served scheduling.
 */
class FcfsScheduler : public Scheduler
{
  public:
    std::string name() const override { return "fcfs"; }

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
        (void)ctx;
        return olderFirst(a, b);
    }
};

} // namespace dbpsim

#endif // DBPSIM_MEM_SCHED_FCFS_HH
