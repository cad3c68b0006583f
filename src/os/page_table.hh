/**
 * @file
 * A per-thread virtual-page -> physical-frame table. Kept deliberately
 * simple: the OS model allocates on first touch and never swaps.
 */

#ifndef DBPSIM_OS_PAGE_TABLE_HH
#define DBPSIM_OS_PAGE_TABLE_HH

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "common/types.hh"

namespace dbpsim {

/**
 * Virtual page number -> physical frame number map for one thread.
 */
class PageTable
{
  public:
    PageTable() = default;

    /** Look up @p vpage; returns true and sets @p frame on a hit. */
    bool lookup(std::uint64_t vpage, std::uint64_t &frame) const;

    /** Install a mapping; @p vpage must not already be mapped. */
    void map(std::uint64_t vpage, std::uint64_t frame);

    /** Replace an existing mapping (page migration). */
    void remap(std::uint64_t vpage, std::uint64_t frame);

    /** Number of mapped pages. */
    std::size_t size() const { return table_.size(); }

    /**
     * Visit every (vpage, frame) pair in ascending vpage order (the
     * order is part of the determinism contract: migration victim
     * selection walks this). Mutation during visit is UB.
     */
    void forEach(
        const std::function<void(std::uint64_t, std::uint64_t)> &fn) const;

  private:
    // dbplint:allow(unordered-decl) reason=lookups are point queries; the only iteration is forEach which sorts by vpage before visiting
    std::unordered_map<std::uint64_t, std::uint64_t> table_;
};

} // namespace dbpsim

#endif // DBPSIM_OS_PAGE_TABLE_HH
