/**
 * @file
 * Physical frame allocator with bank-color awareness.
 *
 * Free frames are tracked per color so the OS can honour per-thread
 * color sets (the enforcement mechanism of every partitioning policy).
 * Each color uses a bump pointer over its virgin frames plus a LIFO
 * free list of released frames, so no frame list is ever materialized.
 */

#ifndef DBPSIM_OS_FRAME_ALLOC_HH
#define DBPSIM_OS_FRAME_ALLOC_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "dram/addr_map.hh"

namespace dbpsim {

/**
 * The frame allocator.
 */
class FrameAllocator
{
  public:
    /** @param map Address map; defines frame count and coloring. */
    explicit FrameAllocator(const AddressMap &map);

    /**
     * Allocate one frame from @p color. Returns the frame number, or
     * fails (returns false) when the color is exhausted.
     */
    bool allocateInColor(unsigned color, std::uint64_t &frame);

    /**
     * Allocate from the first non-exhausted color in @p colors,
     * starting at @p cursor (advanced round-robin, wrapping). Spreads
     * a thread's pages across its colors to preserve intra-thread
     * bank-level parallelism.
     *
     * When every allowed color is exhausted the allocator falls back
     * to any non-exhausted machine color (counted in
     * statFallbackAllocs; @p fell_back set when non-null) — the run
     * degrades with nonconforming pages instead of dying. fatal()s
     * only when the whole machine is out of frames.
     */
    std::uint64_t allocate(const std::vector<unsigned> &colors,
                           std::size_t &cursor,
                           bool *fell_back = nullptr);

    /** Return a frame to its color's free list. */
    void release(std::uint64_t frame);

    /** Free frames remaining in @p color. */
    std::uint64_t freeInColor(unsigned color) const;

    /** Free frames machine-wide. */
    std::uint64_t totalFree() const;

    /** Number of colors. */
    unsigned numColors() const
    {
        return static_cast<unsigned>(bump_.size());
    }

    /** Allocations performed (stat). */
    StatScalar statAllocs;

    /** Releases performed (stat). */
    StatScalar statReleases;

    /** Allocations that fell outside the allowed color set (stat). */
    StatScalar statFallbackAllocs;

  private:
    const AddressMap &map_;
    std::uint64_t framesPerColor_;

    /** Next virgin frame index per color. */
    std::vector<std::uint64_t> bump_;

    /** Released frames per color (LIFO). */
    std::vector<std::vector<std::uint64_t>> freeLists_;
};

} // namespace dbpsim

#endif // DBPSIM_OS_FRAME_ALLOC_HH
