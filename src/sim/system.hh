/**
 * @file
 * The full simulated machine: trace-driven cores over an OS
 * virtual-memory model and per-channel memory controllers with a
 * shared scheduler, profiler and partition manager. Drives the two
 * clock domains (CPU and memory bus) and the profiling/repartitioning
 * interval.
 */

#ifndef DBPSIM_SIM_SYSTEM_HH
#define DBPSIM_SIM_SYSTEM_HH

#include <memory>
#include <vector>

#include "check/protocol_check.hh"
#include "core/core.hh"
#include "dram/addr_map.hh"
#include "mem/controller.hh"
#include "mem/profiler.hh"
#include "mem/scheduler.hh"
#include "os/os_memory.hh"
#include "part/manager.hh"
#include "sim/params.hh"
#include "trace/source.hh"

namespace dbpsim {

/**
 * The machine.
 */
class System : public CoreMemoryInterface
{
  public:
    /**
     * @param params Full configuration.
     * @param sources One trace source per core (not owned; must
     *        outlive the system).
     */
    System(const SystemParams &params,
           const std::vector<TraceSource *> &sources);

    /** Advance @p cpu_cycles CPU cycles. */
    void run(Cycle cpu_cycles);

    /**
     * Snapshot per-core retired-instruction counters; with a second
     * snapshot after run(), the caller derives interval IPCs.
     */
    std::vector<InstCount> instructionSnapshot() const;

    /** Convenience: run a warmup + measurement, return measured IPCs. */
    std::vector<double> runAndMeasure(Cycle warmup_cpu,
                                      Cycle measure_cpu);

    /** CoreMemoryInterface: translate, route, enqueue. */
    bool issueLoad(ThreadId tid, Addr vaddr, MemClient *client,
                   std::uint64_t tag) override;
    bool issueStore(ThreadId tid, Addr vaddr) override;

    /** @name Component access (examples, tests, benches). */
    /// @{
    const SystemParams &params() const { return params_; }
    const AddressMap &addressMap() const { return map_; }
    OsMemory &osMemory() { return *os_; }
    PartitionManager &partitionManager() { return *partMgr_; }
    MemoryController &controllerAt(unsigned i)
    {
        return *controllers_.at(i);
    }
    unsigned numControllers() const
    {
        return static_cast<unsigned>(controllers_.size());
    }

    /**
     * The DRAM protocol checker, or nullptr when params.protocolCheck
     * is off. Observes every channel and the OS partitioning events.
     */
    ProtocolChecker *protocolChecker() { return checker_.get(); }
    const ProtocolChecker *protocolChecker() const
    {
        return checker_.get();
    }
    Cycle cpuCycle() const { return cpuCycle_; }
    Cycle memCycle() const { return memCycle_; }
    /// @}

    /**
     * Force a profiling-interval boundary right now (used to close a
     * run-spanning interval at the end of an alone run).
     */
    void closeIntervalNow() { intervalBoundary(); }

    /** Profiles from the most recently closed interval (may be empty
     *  before the first boundary). */
    const std::vector<ThreadMemProfile> &lastIntervalProfiles() const
    {
        return lastProfiles_;
    }

    /**
     * Dump every component's statistics ("group.stat value" lines):
     * per-channel DRAM command counts and queue stats, per-core
     * retirement and stall counters, OS allocation/migration totals,
     * and partition-manager activity.
     */
    void dumpStats(std::ostream &os) const;

    /** Aggregate a thread's actual (interference-included) row-buffer
     *  hit rate across controllers. */
    double threadRowHitRate(ThreadId tid) const;

    /** Aggregate a thread's average read latency in bus cycles. */
    double threadAvgReadLatency(ThreadId tid) const;

    /**
     * A thread's read-latency percentile (0 < p <= 1) in bus cycles,
     * merged across channels from the controllers' histograms.
     * Overflow samples report the histogram's upper bound.
     */
    double threadReadLatencyPercentile(ThreadId tid, double p) const;

  private:
    /** One CPU cycle of work. */
    void tickCpu();

    /** Close the profiling interval and notify consumers. */
    void intervalBoundary();

    SystemParams params_;
    AddressMap map_;
    std::unique_ptr<ProtocolChecker> checker_;
    std::unique_ptr<OsMemory> os_;
    std::unique_ptr<ThreadProfiler> profiler_;
    std::unique_ptr<Scheduler> scheduler_;
    std::vector<std::unique_ptr<MemoryController>> controllers_;
    std::unique_ptr<PartitionManager> partMgr_;
    std::vector<std::unique_ptr<TraceCore>> cores_;

    Cycle cpuCycle_ = 0;
    Cycle memCycle_ = 0;
    Cycle nextInterval_;
    std::vector<InstCount> intervalInstrBase_;
    std::vector<ThreadMemProfile> lastProfiles_;
};

} // namespace dbpsim

#endif // DBPSIM_SIM_SYSTEM_HH
