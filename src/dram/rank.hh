/**
 * @file
 * Per-rank DRAM state: the tFAW activate window, rank-level command
 * separations, and the in-flight all-bank refresh. The refresh
 * schedule lives in the RefreshEngine.
 */

#ifndef DBPSIM_DRAM_RANK_HH
#define DBPSIM_DRAM_RANK_HH

#include <array>
#include <cstdint>

#include "common/types.hh"

namespace dbpsim {

/**
 * State of one DRAM rank.
 */
struct RankState
{
    /** Issue times of the four most recent ACTIVATEs (ring buffer). */
    std::array<Cycle, 4> actWindow{0, 0, 0, 0};

    /** Next slot to overwrite in actWindow. */
    unsigned actWindowPtr = 0;

    /** Whether each actWindow slot holds a real ACT time yet. */
    unsigned actWindowFill = 0;

    /** Earliest cycle the next ACTIVATE may issue (tRRD). */
    Cycle nextActivate = 0;

    /** Earliest cycle the next READ may issue (tWTR after writes). */
    Cycle nextRead = 0;

    /** End of an in-flight refresh (banks blocked until then). */
    Cycle refreshDoneAt = 0;

    /** True while a REFRESH is in flight at @p now. */
    bool refreshing(Cycle now) const { return now < refreshDoneAt; }
};

} // namespace dbpsim

#endif // DBPSIM_DRAM_RANK_HH
