/**
 * @file
 * The traced system: dbpsim::System re-assembled from the components'
 * public constructors and ticked in System::tickCpu order, with host
 * time recorded around every call into a layer. Forwarding wrappers
 * around the interfaces the traced system owns (TraceSource, Scheduler,
 * CommandObserver, CoreMemoryInterface) count and time the calls the
 * components make into each other.
 *
 * Its numbers describe the real simulator only if it reproduces
 * System::runAndMeasure exactly, so every traced job is re-run on a
 * plain System and compared (see fidelityMismatch()).
 */

#ifndef HOSTBENCH_TRACED_SYSTEM_HH
#define HOSTBENCH_TRACED_SYSTEM_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "tracer.hh"

namespace hostbench {

/** Simulated work counts of one job, summed with addCounts(). */
using Counts = std::map<std::string, double>;

/** @p into += @p from, key by key. */
void addCounts(Counts &into, const Counts &from);

/** DRAM commands one channel issued. */
struct ChannelCounts
{
    std::uint64_t act = 0, pre = 0, rd = 0, wr = 0, ref = 0, refpb = 0,
                  sasel = 0;
    bool operator==(const ChannelCounts &) const = default;
};

ChannelCounts channelCounts(const dbpsim::DramChannel &ch);

/** A job's machine parameters, exactly as dbpsim::runMixJob sets them. */
dbpsim::SystemParams jobParams(const dbpsim::RunConfig &rc,
                               const dbpsim::WorkloadMix &mix,
                               const dbpsim::Scheme &scheme);

/** A job's trace sources, exactly as dbpsim::runMixJob seeds them. */
std::vector<std::unique_ptr<dbpsim::TraceSource>>
jobSources(const dbpsim::RunConfig &rc, const dbpsim::WorkloadMix &mix,
           const dbpsim::Scheme &scheme);

/** Raw pointers of owned sources. */
std::vector<dbpsim::TraceSource *>
rawSources(const std::vector<std::unique_ptr<dbpsim::TraceSource>> &owned);

/** What a job's shared run produced, traced or plain. */
struct JobRun
{
    std::vector<double> ipc;
    std::vector<ChannelCounts> channels;
    std::int64_t wallNs = 0; ///< construction + run.
};

/** What the traced system measured on one job. */
struct TracedRun : JobRun
{
    Counts counts;
    LayerTimes times;
    std::int64_t runNs = 0; ///< warmup + measure phases only.
};

/** Run one job on the traced system, recording spans into @p log. */
TracedRun runTracedJob(const dbpsim::RunConfig &rc,
                       const dbpsim::WorkloadMix &mix,
                       const dbpsim::Scheme &scheme, SpanLog &log,
                       std::uint32_t job);

/** Run the same job on a plain dbpsim::System. */
JobRun runPlainJob(const dbpsim::RunConfig &rc,
                   const dbpsim::WorkloadMix &mix,
                   const dbpsim::Scheme &scheme);

/**
 * Empty when the traced and plain runs agree on every per-thread IPC
 * and every per-channel DRAM command count; otherwise what differs.
 */
std::string fidelityMismatch(const JobRun &traced, const JobRun &plain);

} // namespace hostbench

#endif // HOSTBENCH_TRACED_SYSTEM_HH
