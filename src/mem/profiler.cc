#include "mem/profiler.hh"

#include "common/log.hh"

namespace dbpsim {

namespace {
constexpr std::uint64_t kColdRow = ~0ULL;
} // namespace

ThreadProfiler::ThreadProfiler(unsigned num_threads, unsigned num_colors)
    : numThreads_(num_threads), numColors_(num_colors)
{
    DBP_ASSERT(num_threads > 0, "profiler needs >= 1 thread");
    DBP_ASSERT(num_colors > 0, "profiler needs >= 1 color");
    shadowRow_.assign(static_cast<std::size_t>(num_threads) * num_colors,
                      kColdRow);
    outstanding_.assign(shadowRow_.size(), 0);
    busyBanks_.assign(num_threads, 0);
    reqs_.assign(num_threads, 0);
    shadowHits_.assign(num_threads, 0);
    blpSum_.assign(num_threads, 0);
    blpCycles_.assign(num_threads, 0);
    totalOutstanding_.assign(num_threads, 0);
    rowsOutstanding_.resize(num_threads);
    busyRows_.assign(num_threads, 0);
    mlpSum_.assign(num_threads, 0);
    mlpCycles_.assign(num_threads, 0);
    drpSum_.assign(num_threads, 0);
    drpCycles_.assign(num_threads, 0);
    settledAt_.assign(num_threads, 0);
}

std::size_t
ThreadProfiler::idx(ThreadId tid) const
{
    DBP_ASSERT(tid >= 0 && static_cast<unsigned>(tid) < numThreads_,
               "profiler: bad thread id " << tid);
    return static_cast<std::size_t>(tid);
}

void
ThreadProfiler::onRequest(ThreadId tid, unsigned color, std::uint64_t row)
{
    std::size_t t = idx(tid);
    DBP_ASSERT(color < numColors_, "profiler: color out of range");
    std::size_t slot = t * numColors_ + color;
    if (shadowRow_[slot] == row)
        ++shadowHits_[t];
    shadowRow_[slot] = row;
    ++reqs_[t];
}

namespace {

/** Pack a (color, row) pair into one map key. */
std::uint64_t
rowKey(unsigned color, std::uint64_t row)
{
    return (static_cast<std::uint64_t>(color) << 48) ^ row;
}

} // namespace

void
ThreadProfiler::settle(std::size_t t)
{
    const std::uint64_t cycles = ticks_ - settledAt_[t];
    settledAt_[t] = ticks_;
    if (cycles == 0)
        return;
    if (busyBanks_[t] > 0) {
        blpSum_[t] += cycles * busyBanks_[t];
        blpCycles_[t] += cycles;
    }
    if (totalOutstanding_[t] > 0) {
        mlpSum_[t] += cycles * totalOutstanding_[t];
        mlpCycles_[t] += cycles;
    }
    if (busyRows_[t] > 0) {
        drpSum_[t] += cycles * busyRows_[t];
        drpCycles_[t] += cycles;
    }
}

void
ThreadProfiler::onOutstandingInc(ThreadId tid, unsigned color,
                                 std::uint64_t row, bool count_rows)
{
    std::size_t t = idx(tid);
    DBP_ASSERT(color < numColors_, "profiler: color out of range");
    settle(t);
    std::size_t slot = t * numColors_ + color;
    if (outstanding_[slot]++ == 0)
        ++busyBanks_[t];
    ++totalOutstanding_[t];
    if (count_rows && rowsOutstanding_[t][rowKey(color, row)]++ == 0)
        ++busyRows_[t];
}

void
ThreadProfiler::onOutstandingDec(ThreadId tid, unsigned color,
                                 std::uint64_t row, bool count_rows)
{
    std::size_t t = idx(tid);
    DBP_ASSERT(color < numColors_, "profiler: color out of range");
    std::size_t slot = t * numColors_ + color;
    settle(t);
    DBP_ASSERT(outstanding_[slot] > 0,
               "profiler: outstanding underflow t" << tid << " c" << color);
    if (--outstanding_[slot] == 0) {
        DBP_ASSERT(busyBanks_[t] > 0, "profiler: busyBanks underflow");
        --busyBanks_[t];
    }
    DBP_ASSERT(totalOutstanding_[t] > 0,
               "profiler: total outstanding underflow");
    --totalOutstanding_[t];

    if (!count_rows)
        return;
    auto it = rowsOutstanding_[t].find(rowKey(color, row));
    DBP_ASSERT(it != rowsOutstanding_[t].end() && it->second > 0,
               "profiler: row-outstanding underflow");
    if (--it->second == 0) {
        rowsOutstanding_[t].erase(it);
        DBP_ASSERT(busyRows_[t] > 0, "profiler: busyRows underflow");
        --busyRows_[t];
    }
}

unsigned
ThreadProfiler::busyBanks(ThreadId tid) const
{
    return busyBanks_[idx(tid)];
}

std::vector<ThreadMemProfile>
ThreadProfiler::closeInterval(
    const std::vector<std::uint64_t> &instructions,
    const std::vector<std::uint64_t> &footprint_pages)
{
    DBP_ASSERT(instructions.size() == numThreads_,
               "closeInterval: instruction vector size mismatch");
    DBP_ASSERT(footprint_pages.size() == numThreads_,
               "closeInterval: footprint vector size mismatch");

    std::vector<ThreadMemProfile> out(numThreads_);
    for (unsigned t = 0; t < numThreads_; ++t) {
        settle(t);
        ThreadMemProfile &p = out[t];
        p.requests = reqs_[t];
        p.instructions = instructions[t];
        p.footprintPages = footprint_pages[t];
        p.mpki = instructions[t] == 0
            ? 0.0
            : 1000.0 * static_cast<double>(reqs_[t]) /
                  static_cast<double>(instructions[t]);
        p.rowBufferHitRate = reqs_[t] == 0
            ? 0.0
            : static_cast<double>(shadowHits_[t]) /
                  static_cast<double>(reqs_[t]);
        p.blp = blpCycles_[t] == 0
            ? 0.0
            : static_cast<double>(blpSum_[t]) /
                  static_cast<double>(blpCycles_[t]);
        p.mlp = mlpCycles_[t] == 0
            ? 0.0
            : static_cast<double>(mlpSum_[t]) /
                  static_cast<double>(mlpCycles_[t]);
        p.rowParallelism = drpCycles_[t] == 0
            ? 0.0
            : static_cast<double>(drpSum_[t]) /
                  static_cast<double>(drpCycles_[t]);

        reqs_[t] = 0;
        shadowHits_[t] = 0;
        blpSum_[t] = 0;
        blpCycles_[t] = 0;
        mlpSum_[t] = 0;
        mlpCycles_[t] = 0;
        drpSum_[t] = 0;
        drpCycles_[t] = 0;
    }
    return out;
}

} // namespace dbpsim
