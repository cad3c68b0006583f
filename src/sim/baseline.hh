/**
 * @file
 * Alone-run baselines as a shared, thread-safe, in-memory cache.
 *
 * Every speedup the paper reports divides a shared-run IPC by the
 * application's alone-run IPC on the same hardware. Those alone runs
 * are pure functions of (application, hardware configuration, seed);
 * this module computes each once per process — whichever campaign job
 * asks first — and keeps nothing across processes, so a result never
 * depends on a baseline an earlier build of the simulator computed.
 *
 * Also home of the campaign seeding discipline: jobSeed() derives a
 * simulation seed from stable names only (seed base, mix, scheme), so
 * a sweep's results never depend on job submission or completion
 * order.
 */

#ifndef DBPSIM_SIM_BASELINE_HH
#define DBPSIM_SIM_BASELINE_HH

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "mem/thread_profile.hh"

namespace dbpsim {

struct RunConfig;
struct SystemParams;

/** What one alone run produces: the IPC denominator and the profile. */
struct AloneBaseline
{
    double ipc = 0.0;
    ThreadMemProfile profile;
};

/**
 * FNV-1a 64-bit hash (stable across platforms/runs; used for config
 * signatures and seed derivation).
 */
std::uint64_t hashString(const std::string &s);

/**
 * Deterministic per-job seed: a function of the seed base and the
 * mix/scheme names — never of submission order. Distinct names give
 * (with overwhelming probability) distinct, uncorrelated seeds.
 */
std::uint64_t jobSeed(std::uint64_t seed_base, const std::string &mix,
                      const std::string &scheme);

/**
 * Run @p app alone on the configured hardware (single core, FR-FCFS,
 * unpartitioned) — a pure function of its arguments; thread-safe.
 */
AloneBaseline runAloneBaseline(const RunConfig &rc,
                               const std::string &app);

/**
 * fatal() unless each thread of @p job (running @p apps[i]) retired
 * an instruction in @p rc's measured window: a zero IPC has no
 * speedup or slowdown, and only a longer window gives it one.
 */
void requireMeasuredIpc(const RunConfig &rc, const std::string &job,
                        const std::vector<std::string> &apps,
                        const std::vector<double> &ipc);

/**
 * Alone IPC of @p app with its footprint confined to
 * bankSweepColors(@p banks) — the fig2/fig3 bank-sensitivity probe.
 * Pure function; thread-safe.
 */
double aloneIpcWithBanks(const RunConfig &rc, const std::string &app,
                         unsigned banks);

/**
 * The colors of the first @p banks whole banks of the channel-spread
 * order: every subarray color of each bank under subarray coloring.
 */
std::vector<unsigned> bankSweepColors(const SystemParams &params,
                                      unsigned banks);

/**
 * Thread-safe memoization of alone runs, keyed by
 * (application, alone-config hash). Concurrent requests for the same
 * key block on one computation instead of duplicating it; requests
 * for different keys compute in parallel.
 */
class AloneBaselineCache
{
  public:
    AloneBaselineCache() = default;

    /** Baseline for @p app under @p rc; computes at most once. */
    AloneBaseline get(const RunConfig &rc, const std::string &app);

    /** Alone runs simulated (or in flight) through this cache. */
    std::uint64_t computeCount() const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::shared_future<AloneBaseline>> entries_;
};

} // namespace dbpsim

#endif // DBPSIM_SIM_BASELINE_HH
