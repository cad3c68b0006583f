/**
 * @file
 * The OS virtual-memory model: per-thread page tables over a shared
 * color-aware frame allocator. This is the enforcement point of every
 * partitioning policy — a thread's pages land only in its assigned
 * bank colors, and repartitioning migrates nonconforming pages.
 */

#ifndef DBPSIM_OS_OS_MEMORY_HH
#define DBPSIM_OS_OS_MEMORY_HH

#include <cstdint>
#include <vector>

#include "check/observer.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dram/addr_map.hh"
#include "os/frame_alloc.hh"
#include "os/page_table.hh"

namespace dbpsim {

/**
 * Result of a migration pass: which colors exchanged pages, so the
 * caller can charge the DRAM-traffic cost to the affected banks.
 */
struct MigrationResult
{
    /** Number of pages moved. */
    std::uint64_t pages = 0;

    /** (source color, destination color) per moved page. */
    std::vector<std::pair<unsigned, unsigned>> moves;
};

/**
 * Per-thread virtual memory over shared physical frames.
 */
class OsMemory
{
  public:
    /**
     * @param map Address map (shared with the memory system).
     * @param num_threads Hardware threads; ids are [0, num_threads).
     */
    OsMemory(const AddressMap &map, unsigned num_threads);

    /**
     * Translate a virtual address, allocating a frame on first touch
     * from the thread's current color set.
     */
    Addr translate(ThreadId tid, Addr vaddr);

    /**
     * Set the colors thread @p tid may allocate from. Affects future
     * allocations only; call migrate() to move existing pages.
     */
    void setColorSet(ThreadId tid, std::vector<unsigned> colors);

    /** Current color set of a thread. */
    const std::vector<unsigned> &colorSet(ThreadId tid) const;

    /**
     * Move pages of @p tid that live outside its color set into it,
     * up to @p max_pages (0 = unlimited). Returns what moved.
     */
    MigrationResult migrate(ThreadId tid, std::uint64_t max_pages);

    /** Translations of one thread between two lazy moves. */
    static constexpr std::uint32_t kLazyPeriod = 8;

    /**
     * Enable/disable lazy migrate-on-touch for @p tid: whenever the
     * thread accesses a page outside its color set (rate limited to
     * one move per kLazyPeriod translations), the page is remapped
     * into the set and the move is queued for cost accounting.
     */
    void setLazyMigration(ThreadId tid, bool enabled);

    /** Moves performed lazily since the last drain (src, dst colors). */
    std::vector<std::pair<unsigned, unsigned>> drainLazyMoves();

    /** True when drainLazyMoves() would return a move. */
    bool hasLazyMoves() const { return !pendingMoves_.empty(); }

    /** Pages currently mapped for a thread. */
    std::size_t mappedPages(ThreadId tid) const;

    /** Count of @p tid's pages outside its current color set. */
    std::uint64_t nonconformingPages(ThreadId tid) const;

    /** The shared allocator (tests / capacity checks). */
    const FrameAllocator &allocator() const { return allocator_; }

    /** Number of threads. */
    unsigned numThreads() const
    {
        return static_cast<unsigned>(tables_.size());
    }

    /** OS page size in bytes. */
    std::uint64_t pageBytes() const { return pageBytes_; }

    /** Total pages migrated so far (stat). */
    StatScalar statMigratedPages;

    /**
     * Attach a partition observer (protocol checker): it is notified
     * of every color-set adoption and of the color of every frame
     * allocated or migrated into. Pass nullptr to detach. Not owned.
     */
    void setPartitionObserver(PartitionObserver *observer)
    {
        partObserver_ = observer;
    }

  private:
    /** Bounds-check a thread id. */
    std::size_t idx(ThreadId tid) const;

    /** Report a frame grant to the partition observer (if any). */
    void notifyFrame(ThreadId tid, std::uint64_t frame);

    /**
     * Allocate from @p tid's color set, warning once per thread when
     * the set is exhausted and the allocator falls back machine-wide.
     */
    std::uint64_t allocateFor(ThreadId tid);

    const AddressMap &map_;
    FrameAllocator allocator_;
    std::uint64_t pageBytes_;
    PartitionObserver *partObserver_ = nullptr;

    std::vector<PageTable> tables_;
    std::vector<std::vector<unsigned>> colorSets_;
    std::vector<std::size_t> cursors_; ///< round-robin color cursor.

    /** Per-thread one-shot color-exhaustion warning latch. */
    std::vector<char> fallbackWarned_;

    /** @name Lazy migrate-on-touch state. */
    /// @{
    std::vector<bool> lazyEnabled_;
    std::vector<std::uint64_t> nonconformingCount_;
    std::vector<std::uint32_t> lazyTokens_;
    std::vector<std::pair<unsigned, unsigned>> pendingMoves_;
    /// @}
};

} // namespace dbpsim

#endif // DBPSIM_OS_OS_MEMORY_HH
