/**
 * @file
 * A fixed reference workload that gauges how fast the host runs right
 * now. It is a miniature of the simulator (cores, virtual trace calls,
 * an FR-FCFS queue) whose code never changes with the simulator's, so
 * the ratio of a simulator stage's time to the reference time next to
 * it cancels the host's speed swings but keeps every change to the
 * simulator.
 */

#ifndef HOSTBENCH_REFERENCE_HH
#define HOSTBENCH_REFERENCE_HH

#include <cstdint>

namespace hostbench {

/** Simulated cycles of one reference run. */
constexpr std::uint32_t kReferenceCycles = 200'000;

/**
 * The unit of the normalized times: one normalized second is the host
 * time in which a reference run takes this long. On the 2.1 GHz Xeon
 * vCPU the benchmark was written on, a reference run takes 12-19 ms.
 */
constexpr double kReferenceNominalS = 0.020;

/** Host seconds one reference run takes now. */
double referenceSeconds();

} // namespace hostbench

#endif // HOSTBENCH_REFERENCE_HH
