/**
 * @file
 * Run-time per-thread memory profiler (DBP section "profiling threads'
 * memory characteristics at run-time").
 *
 * Collects, per profiling interval and per thread:
 *  - request count (-> MPKI once instruction counts are supplied),
 *  - intrinsic row-buffer locality via shadow row buffers: one
 *    remembered last-row per (thread, bank color), updated on every
 *    request, so the measured hit rate is interference-free,
 *  - bank-level parallelism, accumulated incrementally: controllers
 *    report outstanding-per-(thread,color) increments/decrements, and
 *    before each change the profiler settles the thread's sums with
 *    the memory cycles since its last change times the busy-bank count
 *    that held over them, counting only cycles with a request
 *    outstanding. MLP and distinct-row parallelism accumulate the same
 *    way.
 *
 * One profiler instance serves all channels (BLP spans channels).
 */

#ifndef DBPSIM_MEM_PROFILER_HH
#define DBPSIM_MEM_PROFILER_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "mem/thread_profile.hh"

namespace dbpsim {

/**
 * The profiler.
 */
class ThreadProfiler
{
  public:
    /**
     * @param num_threads Hardware threads.
     * @param num_colors Machine-wide bank count.
     */
    ThreadProfiler(unsigned num_threads, unsigned num_colors);

    /**
     * A request entered a controller: update shadow row buffer and
     * request count. @p row is the DRAM row within the color.
     */
    void onRequest(ThreadId tid, unsigned color, std::uint64_t row);

    /**
     * A request of @p tid became outstanding at (@p color, @p row).
     * @p count_rows selects whether the request participates in the
     * distinct-row-parallelism estimate: loads do, posted stores do
     * not (they linger in deep write queues and would smear the
     * estimate across every row the thread visited recently).
     */
    void onOutstandingInc(ThreadId tid, unsigned color,
                          std::uint64_t row, bool count_rows = true);

    /** A request of @p tid left (@p color, @p row) (serviced). */
    void onOutstandingDec(ThreadId tid, unsigned color,
                          std::uint64_t row, bool count_rows = true);

    /** Count one memory-bus cycle; call exactly once per cycle. */
    void tick() { ++ticks_; }

    /**
     * Close the interval: combine with per-thread instruction and
     * footprint counts (collected by the system from cores / OS) and
     * reset interval counters. Shadow row buffers persist across
     * intervals (locality is a stream property).
     */
    std::vector<ThreadMemProfile>
    closeInterval(const std::vector<std::uint64_t> &instructions,
                  const std::vector<std::uint64_t> &footprint_pages);

    /** Threads being profiled. */
    unsigned numThreads() const { return numThreads_; }

    /** Current outstanding busy-bank count of a thread (tests). */
    unsigned busyBanks(ThreadId tid) const;

  private:
    std::size_t idx(ThreadId tid) const;

    /** Add the cycles since thread @p t's last settle, at its current
     *  counts, to its BLP/MLP/row-parallelism sums. */
    void settle(std::size_t t);

    unsigned numThreads_;
    unsigned numColors_;

    /** Shadow row buffers: last row per (thread, color); kNever = cold. */
    std::vector<std::uint64_t> shadowRow_; ///< [thread * colors + color].

    /** Outstanding requests per (thread, color). */
    std::vector<std::uint32_t> outstanding_;

    /** Banks with outstanding_ > 0, per thread (incremental). */
    std::vector<std::uint32_t> busyBanks_;

    /** Outstanding requests per thread (all banks). */
    std::vector<std::uint32_t> totalOutstanding_;

    /** Outstanding per (color, row) key, per thread. */
    // dbplint:allow(unordered-decl) reason=never iterated; only point find/insert/erase with the busyRows_ counter maintained incrementally, so hash order cannot reach results
    std::vector<std::unordered_map<std::uint64_t, std::uint32_t>>
        rowsOutstanding_;

    /** Distinct (color, row) targets outstanding, per thread. */
    std::vector<std::uint32_t> busyRows_;

    /** tick() calls so far. */
    std::uint64_t ticks_ = 0;

    /** ticks_ at each thread's last settle(). */
    std::vector<std::uint64_t> settledAt_;

    /** Interval accumulators. */
    std::vector<std::uint64_t> reqs_;
    std::vector<std::uint64_t> shadowHits_;
    std::vector<std::uint64_t> blpSum_;
    std::vector<std::uint64_t> blpCycles_;
    std::vector<std::uint64_t> mlpSum_;
    std::vector<std::uint64_t> mlpCycles_;
    std::vector<std::uint64_t> drpSum_;
    std::vector<std::uint64_t> drpCycles_;
};

} // namespace dbpsim

#endif // DBPSIM_MEM_PROFILER_HH
