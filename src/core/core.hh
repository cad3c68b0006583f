/**
 * @file
 * Trace-driven core model with an instruction window, MSHRs and a
 * store buffer — the standard front end of memory-scheduling studies
 * (PAR-BS / ATLAS / TCM / MCP use the same model): the core retires up
 * to issueWidth instructions per CPU cycle; loads issue to the memory
 * system as soon as they enter the window (out-of-order issue, subject
 * to MSHR availability, with same-line merging) but block retirement
 * when they reach the window head uncompleted; stores retire into a
 * finite store buffer that drains to the memory system asynchronously.
 * This reproduces each application's memory-level parallelism, which
 * is exactly what bank partitioning trades in.
 */

#ifndef DBPSIM_CORE_CORE_HH
#define DBPSIM_CORE_CORE_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "common/log.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/request.hh"
#include "trace/source.hh"

namespace dbpsim {

/**
 * Core configuration.
 */
struct CoreParams
{
    unsigned windowSize = 128;     ///< instruction window entries.
    unsigned issueWidth = 4;       ///< max retires per CPU cycle.
    unsigned mshrs = 32;           ///< outstanding load lines.
    unsigned storeBufferSize = 32; ///< pending stores.
    std::uint64_t lineBytes = 64;  ///< access granularity.

    /** Take every tick in full: no bubble run, no sleep. The
     *  reference the skips are tested against (tests only). */
    bool fullTicks = false;
};

/**
 * How a core reaches the memory system. The System implements this:
 * it translates virtual addresses through the OS model and routes to
 * the right channel controller.
 */
class CoreMemoryInterface
{
  public:
    virtual ~CoreMemoryInterface() = default;

    /**
     * Issue a load for @p vaddr. Returns false when the memory system
     * cannot accept it this cycle (retry later). On true, completion
     * arrives via @p client->readComplete(@p tag).
     */
    virtual bool issueLoad(ThreadId tid, Addr vaddr, MemClient *client,
                           std::uint64_t tag) = 0;

    /** Issue a posted store; false = retry later. */
    virtual bool issueStore(ThreadId tid, Addr vaddr) = 0;

    /**
     * A read completion is waking core @p tid from sleep. Called
     * before the core clears its sleep, so a caller that stopped
     * ticking the sleeping core can apply the quiet ticks it skipped,
     * the current cycle's included. A caller that ticks every core
     * every cycle has nothing to do.
     */
    virtual void onCoreWake(ThreadId tid) { (void)tid; }
};

/**
 * The core.
 */
class TraceCore : public MemClient
{
  public:
    /**
     * @param tid This core's hardware thread id.
     * @param params Window/MSHR configuration.
     * @param source Trace to execute (not owned).
     * @param mem Memory interface (not owned).
     */
    TraceCore(ThreadId tid, CoreParams params, TraceSource *source,
              CoreMemoryInterface *mem);

    /** Advance one CPU cycle. */
    void tick();

    /**
     * How many coming ticks would only count: the rest of a bubble
     * run, kNeverCycle while asleep (until a readComplete()), else 0.
     */
    Cycle
    quietTicks() const
    {
        if (bubbleRun_ > 0)
            return bubbleRun_;
        return asleep_ ? kNeverCycle : 0;
    }

    /** Apply @p n quiet ticks at once; @p n <= quietTicks(). Inline,
     *  since tick() applies every quiet tick through it. */
    void
    skipTicks(Cycle n)
    {
        if (bubbleRun_ > 0) {
            DBP_ASSERT(n <= bubbleRun_, n << " ticks skipped in a bubble "
                       "run of " << bubbleRun_);
            const std::uint64_t instrs = n * params_.issueWidth;
            bubbleRun_ -= n;
            window_.front().count -= instrs;
            windowInstrs_ -= instrs;
            retired_ += instrs;
        } else if (asleep_) {
            statHeadStalls.inc(n);
            if (asleepOnMshrs_)
                statMshrStalls.inc(n);
        } else {
            DBP_ASSERT(n == 0, n << " ticks skipped on a core that is due");
        }
    }

    /** MemClient: a load line returned. @p tag is the MSHR index. */
    void readComplete(std::uint64_t tag) override;

    /** Instructions retired since construction. */
    InstCount instructionsRetired() const { return retired_; }

    /** This core's thread id. */
    ThreadId tid() const { return tid_; }

    /** Outstanding load lines right now (tests). */
    unsigned outstandingLoads() const { return mshrInUse_; }

    /** Occupied instruction-window slots, in instructions (tests). */
    std::uint64_t windowOccupancy() const { return windowInstrs_; }

    /** @name Counters. */
    /// @{
    StatScalar statLoads;        ///< loads issued to memory.
    StatScalar statStores;       ///< stores issued to memory.
    StatScalar statMshrMerges;   ///< loads merged into an MSHR.
    StatScalar statHeadStalls;   ///< cycles stalled on a head load.
    StatScalar statMshrStalls;   ///< cycles a load waited for an MSHR.
    StatScalar statStoreStalls;  ///< cycles stalled on store buffer.
    /// @}

  private:
    /** One window entry: a bubble run or a memory instruction. */
    struct Entry
    {
        enum class Kind { Bubble, Load, Store } kind = Kind::Bubble;
        std::uint64_t count = 0; ///< remaining instructions (bubbles).
        Addr vaddr = 0;          ///< memory entries.
        bool completed = false;  ///< load data returned.
    };

    /** Fill the window from the trace. */
    void fetch();

    /** Try to issue the unissued loads, from nextIssue_ on. */
    void issueLoads();

    /** Retire from the head, up to issueWidth instructions. */
    void retire();

    /** Drain one store-buffer entry if the memory system accepts. */
    void drainStoreBuffer();

    /** Try to issue the load at window position @p pos; updates
     *  MSHR state. */
    bool tryIssueLoad(std::uint64_t pos);

    /** Remove the head entry from the window. */
    void popHead();

    ThreadId tid_;
    CoreParams params_;
    TraceSource *source_;
    CoreMemoryInterface *mem_;

    /**
     * Entries are addressed by position: the entry at position p is
     * window_[p - popped_]. Every load before nextIssue_ has issued
     * (issue attempts go in window order and stop at the first
     * refusal), and every load from nextIssue_ on has not.
     */
    std::deque<Entry> window_;
    std::uint64_t popped_ = 0;       ///< entries retired so far.
    std::uint64_t nextIssue_ = 0;    ///< where issueLoads resumes.
    std::uint64_t windowInstrs_ = 0; ///< instructions in the window.
    InstCount retired_ = 0;

    /** MSHR: line address + completion fan-out to window entries. */
    struct Mshr
    {
        bool valid = false;
        Addr lineAddr = 0;
        std::vector<std::uint64_t> waiters; ///< entry positions.
    };
    std::vector<Mshr> mshrs_;
    unsigned mshrInUse_ = 0;

    std::deque<Addr> storeBuffer_;

    /**
     * Asleep after a tick that left a full window, an empty store
     * buffer and an incomplete load at the head, with every window
     * load issued or the issue attempt stopped on a full MSHR file.
     * Until a readComplete() every tick would then only count a head
     * stall (and the same MSHR stall), so tick() counts them and
     * returns.
     */
    bool asleep_ = false;
    bool asleepOnMshrs_ = false; ///< asleep with the MSHR file full.

    /**
     * Ticks left in a bubble run. A tick that leaves an empty store
     * buffer, at least windowSize instructions in the window, every
     * window load issued and a bubble at the head starts one: until
     * the window drops below windowSize or the head bubble is down to
     * its last issueWidth instructions, every tick would only retire
     * issueWidth instructions from that bubble (fetch adds nothing, no
     * load is left to issue, nothing reaches the store buffer), so
     * tick() does exactly that and returns. No readComplete() can end
     * a run early: it only marks loads behind the head.
     */
    std::uint64_t bubbleRun_ = 0;
};

} // namespace dbpsim

#endif // DBPSIM_CORE_CORE_HH
