/**
 * @file
 * Subarray-level parallelism (SALP/MASA) state.
 *
 * A DRAM bank is internally an array of subarrays, each with its own
 * local sense amplifiers (a local row buffer). Kim et al. ("Exploiting
 * the DRAM Microarchitecture to Increase Memory-Level Parallelism",
 * ISCA 2012) expose this to the controller in three steps:
 *
 *  - SALP-1: an ACTIVATE to one subarray may overlap another
 *    subarray's in-flight PRECHARGE (the other subarray's tRP is not
 *    consulted), but at most one subarray holds an open row.
 *  - SALP-2: a second row-address latch lets the PRECHARGE itself
 *    issue during a prior access's write recovery; its internal
 *    completion is deferred past the recovery, so the following
 *    ACTIVATE to another subarray overlaps the write recovery too.
 *  - MASA: every subarray may hold an open row simultaneously; an
 *    SA_SEL command relinks which subarray's row buffer drives the
 *    global bitlines (the "designated" subarray, tSA cycles), and
 *    column commands are legal only to the designated subarray.
 *
 * A bank (bank.hh) is an array of these subarrays under every mode:
 * salp=none is the one-subarray bank, and each SALP rule reduces to
 * the plain DDR3 bank rule when there is only one subarray. The
 * channel applies one rule set to all modes; only the mode-specific
 * relaxations above (ACT beside another open subarray under MASA,
 * deferred write recovery under SALP-2/MASA, SA_SEL) test the mode.
 */

#ifndef DBPSIM_DRAM_SUBARRAY_HH
#define DBPSIM_DRAM_SUBARRAY_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace dbpsim {

/** Subarray-level parallelism mode of a channel. */
enum class SalpMode
{
    None,  ///< one subarray per bank: the monolithic row buffer.
    Salp1, ///< overlap PRE of one subarray with ACT of another.
    Salp2, ///< additionally overlap ACT with prior write recovery.
    Masa,  ///< multiple open subarrays + SA_SEL designated relinking.
};

/** Parse "none" / "salp1" / "salp2" / "masa"; fatal() otherwise. */
SalpMode salpModeByName(const std::string &name);

/** Human-readable mode name. */
const char *salpModeName(SalpMode mode);

/**
 * State of one subarray: a local row buffer plus the earliest cycle
 * each command class may next be issued to it. The channel is the
 * only writer.
 */
struct SubarrayState
{
    /** True when a row is latched in the local row buffer. */
    bool open = false;

    /** The open row (valid iff open). */
    std::uint64_t row = 0;

    /** Earliest cycle an ACTIVATE may issue (tRC, deferred tRP...). */
    Cycle nextActivate = 0;

    /** Earliest cycle a PRECHARGE may issue (tRAS, tRTP, and the
     *  write recovery unless SALP-2/MASA defer it). */
    Cycle nextPrecharge = 0;

    /** Earliest cycle a READ may issue (tRCD after own ACT). */
    Cycle nextRead = 0;

    /** Earliest cycle a WRITE may issue (tRCD after own ACT). */
    Cycle nextWrite = 0;

    /** End of the last write recovery (SALP-2/MASA): a PRECHARGE may
     *  issue before this, but completes internally only after it. */
    Cycle wrRecoveryAt = 0;
};

} // namespace dbpsim

#endif // DBPSIM_DRAM_SUBARRAY_HH
