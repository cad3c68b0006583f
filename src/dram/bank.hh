/**
 * @file
 * Per-bank DRAM state. A bank is an array of subarrays, each with its
 * own local row buffer and earliest-next-command times (subarray.hh),
 * plus the latch that links one of them to the global bitlines. With
 * salp=none the bank has a single subarray, which is exactly the
 * monolithic row buffer of a plain DDR3 bank. The channel is the only
 * writer of these fields.
 *
 * Consumers that do not care about subarrays (refresh engine, memory
 * controller, tests) read the bank-level views below; they are derived
 * from the subarrays on every call, so there is nothing to keep in
 * sync.
 */

#ifndef DBPSIM_DRAM_BANK_HH
#define DBPSIM_DRAM_BANK_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "dram/subarray.hh"

namespace dbpsim {

/**
 * State of one DRAM bank.
 */
struct BankState
{
    /** The subarrays; exactly one with salp=none. */
    std::vector<SubarrayState> subs;

    /** Subarray linked to the global bitlines: the most recently
     *  activated one, or under MASA the last SA_SEL target. */
    unsigned designated = 0;

    /** Cycle the designated link becomes usable (SA_SEL takes tSA). */
    Cycle designateReadyAt = 0;

    /** End of an in-flight per-bank refresh (REFpb); the subarrays'
     *  next* fields are pushed past it, this records it for
     *  introspection. */
    Cycle refreshUntil = 0;

    /** True while a per-bank refresh occupies this bank at @p now. */
    bool refreshing(Cycle now) const { return now < refreshUntil; }

    /**
     * The subarray whose row the bank shows: the designated one if it
     * is open, else the lowest-indexed open one; nullptr when every
     * subarray is closed.
     */
    const SubarrayState *
    visible() const
    {
        if (subs[designated].open)
            return &subs[designated];
        for (const SubarrayState &s : subs)
            if (s.open)
                return &s;
        return nullptr;
    }

    /** True while any subarray holds an open row. */
    bool open() const { return visible() != nullptr; }

    /** The visible row (meaningful only while open()). */
    std::uint64_t
    row() const
    {
        const SubarrayState *v = visible();
        return v ? v->row : 0;
    }

    /** Earliest cycle every subarray may activate: the latest
     *  nextActivate, which is what refresh eligibility needs. */
    Cycle
    nextActivate() const
    {
        Cycle latest = 0;
        for (const SubarrayState &s : subs)
            latest = std::max(latest, s.nextActivate);
        return latest;
    }
};

} // namespace dbpsim

#endif // DBPSIM_DRAM_BANK_HH
