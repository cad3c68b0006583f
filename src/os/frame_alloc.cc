#include "os/frame_alloc.hh"

#include "common/log.hh"

namespace dbpsim {

FrameAllocator::FrameAllocator(const AddressMap &map)
    : map_(map), framesPerColor_(map.framesPerColor()),
      bump_(map.numColors(), 0), freeLists_(map.numColors())
{
}

bool
FrameAllocator::allocateInColor(unsigned color, std::uint64_t &frame)
{
    DBP_ASSERT(color < bump_.size(), "color out of range");
    auto &fl = freeLists_[color];
    if (!fl.empty()) {
        frame = fl.back();
        fl.pop_back();
        statAllocs.inc();
        return true;
    }
    if (bump_[color] < framesPerColor_) {
        std::uint64_t idx = bump_[color]++;
        frame = map_.frameOfColorIndex(color, idx);
        statAllocs.inc();
        return true;
    }
    return false;
}

std::uint64_t
FrameAllocator::allocate(const std::vector<unsigned> &colors,
                         std::size_t &cursor, bool *fell_back)
{
    DBP_ASSERT(!colors.empty(), "empty color set");
    for (std::size_t tries = 0; tries < colors.size(); ++tries) {
        unsigned color = colors[cursor % colors.size()];
        cursor = (cursor + 1) % colors.size();
        std::uint64_t frame;
        if (allocateInColor(color, frame))
            return frame;
    }
    // The allowed set is exhausted: fall back to any machine color so
    // the run degrades (nonconforming pages a later migrate() can fix)
    // instead of dying on what is usually a footprint/partition
    // mismatch, not a capacity bug.
    for (unsigned c = 0; c < numColors(); ++c) {
        std::uint64_t frame;
        if (allocateInColor(c, frame)) {
            statFallbackAllocs.inc();
            if (fell_back)
                *fell_back = true;
            return frame;
        }
    }
    fatal("out of physical memory: all ", numColors(),
          " bank colors exhausted machine-wide");
}

void
FrameAllocator::release(std::uint64_t frame)
{
    freeLists_[map_.colorOfFrame(frame)].push_back(frame);
    statReleases.inc();
}

std::uint64_t
FrameAllocator::freeInColor(unsigned color) const
{
    DBP_ASSERT(color < bump_.size(), "color out of range");
    return (framesPerColor_ - bump_[color]) + freeLists_[color].size();
}

std::uint64_t
FrameAllocator::totalFree() const
{
    std::uint64_t total = 0;
    for (unsigned c = 0; c < bump_.size(); ++c)
        total += freeInColor(c);
    return total;
}

} // namespace dbpsim
