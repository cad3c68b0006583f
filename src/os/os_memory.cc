#include "os/os_memory.hh"

#include <algorithm>

#include "common/log.hh"

namespace dbpsim {

OsMemory::OsMemory(const AddressMap &map, unsigned num_threads)
    : map_(map), allocator_(map), pageBytes_(map.geometry().pageBytes)
{
    DBP_ASSERT(num_threads > 0, "OsMemory needs >= 1 thread");
    tables_.resize(num_threads);
    cursors_.assign(num_threads, 0);

    // Default: every thread may use every color (unpartitioned).
    std::vector<unsigned> all(map.numColors());
    for (unsigned c = 0; c < map.numColors(); ++c)
        all[c] = c;
    colorSets_.assign(num_threads, all);
    fallbackWarned_.assign(num_threads, 0);
    lazyEnabled_.assign(num_threads, false);
    nonconformingCount_.assign(num_threads, 0);
    lazyTokens_.assign(num_threads, 0);

    // Stagger the initial round-robin cursors so co-running threads do
    // not allocate their first pages in the same bank sequence.
    for (unsigned t = 0; t < num_threads; ++t)
        cursors_[t] = (t * 3) % all.size();
}

std::size_t
OsMemory::idx(ThreadId tid) const
{
    DBP_ASSERT(tid >= 0 && static_cast<std::size_t>(tid) < tables_.size(),
               "thread id " << tid << " out of range");
    return static_cast<std::size_t>(tid);
}

void
OsMemory::notifyFrame(ThreadId tid, std::uint64_t frame)
{
    if (partObserver_)
        partObserver_->onFrameAllocated(tid, map_.colorOfFrame(frame));
}

std::uint64_t
OsMemory::allocateFor(ThreadId tid)
{
    std::size_t t = idx(tid);
    bool fell_back = false;
    std::uint64_t frame =
        allocator_.allocate(colorSets_[t], cursors_[t], &fell_back);
    if (fell_back && !fallbackWarned_[t]) {
        fallbackWarned_[t] = 1;
        warn("thread ", tid, ": color set (", colorSets_[t].size(),
             " colors) exhausted; allocating outside the partition "
             "(reported once per thread; see fallback_allocs)");
    }
    return frame;
}

Addr
OsMemory::translate(ThreadId tid, Addr vaddr)
{
    std::size_t t = idx(tid);
    std::uint64_t vpage = vaddr / pageBytes_;
    std::uint64_t offset = vaddr % pageBytes_;

    std::uint64_t frame;
    if (!tables_[t].lookup(vpage, frame)) {
        frame = allocateFor(tid);
        tables_[t].map(vpage, frame);
        notifyFrame(tid, frame);
    } else if (lazyEnabled_[t] && nonconformingCount_[t] > 0 &&
               ++lazyTokens_[t] >= kLazyPeriod) {
        // Lazy migrate-on-touch: a re-accessed page outside the color
        // set is remapped into it, at most once per kLazyPeriod
        // translations (bounds copy traffic under random access).
        unsigned color = map_.colorOfFrame(frame);
        const auto &set = colorSets_[t];
        if (!std::binary_search(set.begin(), set.end(), color)) {
            std::uint64_t moved = allocateFor(tid);
            tables_[t].remap(vpage, moved);
            notifyFrame(tid, moved);
            allocator_.release(frame);
            pendingMoves_.emplace_back(color,
                                       map_.colorOfFrame(moved));
            --nonconformingCount_[t];
            lazyTokens_[t] = 0;
            statMigratedPages.inc();
            frame = moved;
        }
    }
    return frame * pageBytes_ + offset;
}

void
OsMemory::setLazyMigration(ThreadId tid, bool enabled)
{
    std::size_t t = idx(tid);
    lazyEnabled_[t] = enabled;
    if (enabled)
        nonconformingCount_[t] = nonconformingPages(tid);
}

std::vector<std::pair<unsigned, unsigned>>
OsMemory::drainLazyMoves()
{
    std::vector<std::pair<unsigned, unsigned>> out;
    out.swap(pendingMoves_);
    return out;
}

void
OsMemory::setColorSet(ThreadId tid, std::vector<unsigned> colors)
{
    std::size_t t = idx(tid);
    DBP_ASSERT(!colors.empty(), "thread " << tid << " given empty colors");
    for (unsigned c : colors)
        DBP_ASSERT(c < map_.numColors(), "color " << c << " out of range");
    std::sort(colors.begin(), colors.end());
    colors.erase(std::unique(colors.begin(), colors.end()), colors.end());
    colorSets_[t] = std::move(colors);
    cursors_[t] %= colorSets_[t].size();
    if (partObserver_)
        partObserver_->onColorSet(tid, colorSets_[t]);
    if (lazyEnabled_[t])
        nonconformingCount_[t] = nonconformingPages(tid);
}

const std::vector<unsigned> &
OsMemory::colorSet(ThreadId tid) const
{
    return colorSets_[idx(tid)];
}

std::size_t
OsMemory::mappedPages(ThreadId tid) const
{
    return tables_[idx(tid)].size();
}

std::uint64_t
OsMemory::nonconformingPages(ThreadId tid) const
{
    std::size_t t = idx(tid);
    const auto &set = colorSets_[t];
    std::uint64_t count = 0;
    tables_[t].forEach([&](std::uint64_t, std::uint64_t frame) {
        unsigned color = map_.colorOfFrame(frame);
        if (!std::binary_search(set.begin(), set.end(), color))
            ++count;
    });
    return count;
}

MigrationResult
OsMemory::migrate(ThreadId tid, std::uint64_t max_pages)
{
    std::size_t t = idx(tid);
    MigrationResult result;
    const auto &set = colorSets_[t];

    // Collect nonconforming pages first (mutating inside forEach is
    // not allowed).
    std::vector<std::pair<std::uint64_t, std::uint64_t>> victims;
    tables_[t].forEach([&](std::uint64_t vpage, std::uint64_t frame) {
        unsigned color = map_.colorOfFrame(frame);
        if (!std::binary_search(set.begin(), set.end(), color))
            victims.emplace_back(vpage, frame);
    });

    for (const auto &[vpage, old_frame] : victims) {
        if (max_pages != 0 && result.pages >= max_pages)
            break;
        std::uint64_t new_frame = allocateFor(tid);
        tables_[t].remap(vpage, new_frame);
        notifyFrame(tid, new_frame);
        allocator_.release(old_frame);
        result.moves.emplace_back(map_.colorOfFrame(old_frame),
                                  map_.colorOfFrame(new_frame));
        ++result.pages;
    }
    statMigratedPages.inc(result.pages);
    if (lazyEnabled_[t]) {
        DBP_ASSERT(nonconformingCount_[t] >= result.pages,
                   "lazy nonconforming count out of sync");
        nonconformingCount_[t] -= result.pages;
    }
    return result;
}

} // namespace dbpsim
