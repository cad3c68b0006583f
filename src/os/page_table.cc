#include "os/page_table.hh"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/log.hh"

namespace dbpsim {

bool
PageTable::lookup(std::uint64_t vpage, std::uint64_t &frame) const
{
    auto it = table_.find(vpage);
    if (it == table_.end())
        return false;
    frame = it->second;
    return true;
}

void
PageTable::map(std::uint64_t vpage, std::uint64_t frame)
{
    auto [it, inserted] = table_.emplace(vpage, frame);
    (void)it;
    DBP_ASSERT(inserted, "vpage " << vpage << " already mapped");
}

void
PageTable::remap(std::uint64_t vpage, std::uint64_t frame)
{
    auto it = table_.find(vpage);
    DBP_ASSERT(it != table_.end(), "remap of unmapped vpage " << vpage);
    it->second = frame;
}

void
PageTable::forEach(
    const std::function<void(std::uint64_t, std::uint64_t)> &fn) const
{
    // Visit in ascending vpage order: callers pick migration victims
    // and build statistics during this walk, so hash order would leak
    // implementation-defined behaviour into results.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> entries;
    entries.reserve(table_.size());
    // dbplint:allow(unordered-iter) reason=entries are collected then sorted by vpage before any caller-visible emission
    for (const auto &kv : table_)
        entries.emplace_back(kv.first, kv.second);
    std::sort(entries.begin(), entries.end());
    for (const auto &[vpage, frame] : entries)
        fn(vpage, frame);
}

} // namespace dbpsim
