/**
 * @file
 * Scheduler construction by name.
 */

#ifndef DBPSIM_MEM_SCHED_FACTORY_HH
#define DBPSIM_MEM_SCHED_FACTORY_HH

#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "mem/scheduler.hh"

namespace dbpsim {

/**
 * Everything scheduler constructors might need.
 */
struct SchedulerInit
{
    unsigned numThreads = 8;   ///< hardware threads.
    unsigned numColors = 32;   ///< machine-wide banks (PAR-BS grouping).
    // dbplint:allow(cycle-literal) reason=placeholder mirroring DramTiming::tBURST; system assembly overwrites it from the timing preset in force
    Cycle burstCycles = 4;     ///< tBURST (ATLAS service unit).
    // dbplint:allow(cycle-literal) reason=TCM paper constant (800-cycle shuffle), overridden by config key tcm_shuffle
    Cycle tcmShuffleInterval = 800;
    double tcmClusterThresh = 0.10;
    // dbplint:allow(cycle-literal) reason=evaluation default, the ATLAS paper quantum scaled to the shortened run window like the profiling interval; overridden by config key atlas_quantum
    Cycle atlasQuantum = 150'000; ///< ATLAS quantum (bus cycles).
    unsigned parbsMarkingCap = 5;
};

/** Names accepted by makeScheduler, in a stable order. */
const std::vector<std::string> &schedulerNames();

/**
 * Build a scheduler: "fcfs", "fr-fcfs", "par-bs", "atlas" or "tcm".
 * fatal()s on unknown names.
 */
std::unique_ptr<Scheduler> makeScheduler(const std::string &name,
                                         const SchedulerInit &init);

} // namespace dbpsim

#endif // DBPSIM_MEM_SCHED_FACTORY_HH
