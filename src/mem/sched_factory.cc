#include "mem/sched_factory.hh"

#include "common/log.hh"
#include "mem/sched_atlas.hh"
#include "mem/sched_fcfs.hh"
#include "mem/sched_frfcfs.hh"
#include "mem/sched_parbs.hh"
#include "mem/sched_tcm.hh"

namespace dbpsim {

const std::vector<std::string> &
schedulerNames()
{
    static const std::vector<std::string> names = {
        "fcfs", "fr-fcfs", "par-bs", "atlas", "tcm",
    };
    return names;
}

std::unique_ptr<Scheduler>
makeScheduler(const std::string &name, const SchedulerInit &init)
{
    if (name == "fcfs")
        return std::make_unique<FcfsScheduler>();
    if (name == "fr-fcfs")
        return std::make_unique<FrFcfsScheduler>();
    if (name == "par-bs") {
        ParbsParams p;
        p.markingCap = init.parbsMarkingCap;
        return std::make_unique<ParbsScheduler>(init.numThreads,
                                                init.numColors, p);
    }
    if (name == "atlas") {
        AtlasParams p;
        p.quantum = init.atlasQuantum;
        return std::make_unique<AtlasScheduler>(init.numThreads,
                                                init.burstCycles, p);
    }
    if (name == "tcm") {
        TcmParams p;
        p.clusterThresh = init.tcmClusterThresh;
        p.shuffleInterval = init.tcmShuffleInterval;
        return std::make_unique<TcmScheduler>(init.numThreads, p);
    }
    fatal("unknown scheduler '", name, "' (expected fcfs|fr-fcfs|par-bs|",
          "atlas|tcm)");
}

} // namespace dbpsim
