/**
 * @file
 * Cycle-level model of one DRAM channel: ranks of banks, the shared
 * command and data buses, and the full DDR3 timing rule set.
 *
 * The memory controller drives this model: each memory-bus cycle it
 * may ask when a command becomes legal (readyAt; canIssue is the same
 * rule at one cycle) and then issue it. issue() updates all affected
 * earliest-next-command times and, for column commands, returns the
 * cycle at which the data burst finishes (when read data is available
 * to the requester).
 *
 * Every bank is an array of subarrays (bank.hh) and one rule set
 * covers all SALP modes: salp=none builds one subarray per bank, on
 * which each subarray rule is the plain DDR3 bank rule. The command's
 * row selects its subarray.
 */

#ifndef DBPSIM_DRAM_CHANNEL_HH
#define DBPSIM_DRAM_CHANNEL_HH

#include <cstdint>
#include <vector>

#include "check/observer.hh"
#include "common/log.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dram/addr_map.hh"
#include "dram/bank.hh"
#include "dram/rank.hh"
#include "dram/subarray.hh"
#include "dram/timing.hh"

namespace dbpsim {

/** DRAM command types the controller can issue. */
enum class DramCmd
{
    Activate,
    Precharge,
    Read,
    Write,
    ReadAp,  ///< READ with auto-precharge (closed-page policy).
    WriteAp, ///< WRITE with auto-precharge.
    SaSel,   ///< MASA: relink the designated subarray latch (tSA).
    Refresh, ///< all-bank auto-refresh (rank granular).
    RefreshBank, ///< per-bank refresh (only the target bank blocked).
};

/** Printable command name. */
const char *dramCmdName(DramCmd cmd);

/**
 * One DRAM channel.
 */
class DramChannel
{
  public:
    /**
     * @param geom Machine geometry (rank/bank counts are read from it).
     * @param timing Timing rule set in bus cycles.
     * @param channel_id Identifier for diagnostics.
     * @param salp Subarray-level parallelism mode; None builds one
     *        subarray per bank whatever geom.subarraysPerBank says.
     */
    DramChannel(const DramGeometry &geom, const DramTiming &timing,
                unsigned channel_id, SalpMode salp = SalpMode::None);

    /**
     * The first bus cycle at which @p cmd is legal if no other command
     * issues first: the latest of the rank's refresh end and every
     * timing bound that applies (tRRD/tFAW, the subarray's next*
     * times, tCCD, the data bus with its rank/direction switch). It is
     * kNeverCycle when bank state rules the command out: a column
     * command or SA_SEL whose row is not open (or, for a column
     * command, not designated), an ACT to an open bank (subarray under
     * MASA), an SA_SEL outside MASA, a refresh of an open bank.
     *
     * For Read/Write/ReadAp/WriteAp, @p row must equal the open row.
     * For Refresh, @p bank is ignored. @p row also selects the target
     * subarray (Precharge and SaSel included).
     */
    Cycle readyAt(DramCmd cmd, unsigned rank, unsigned bank,
                  std::uint64_t row) const;

    /** Is @p cmd legal at cycle @p now? (readyAt() is the one rule.) */
    bool
    canIssue(DramCmd cmd, unsigned rank, unsigned bank, std::uint64_t row,
             Cycle now) const
    {
        return readyAt(cmd, rank, bank, row) <= now;
    }

    /**
     * Issue @p cmd at cycle @p now; must be legal (checked).
     *
     * @param tid Requesting thread (forwarded to the command
     * observer); kInvalidThread for controller-internal commands
     * (refresh management, idle row closes).
     *
     * @return For column commands, the cycle the data burst completes
     * (read data available / write retired); 0 for other commands.
     */
    Cycle issue(DramCmd cmd, unsigned rank, unsigned bank,
                std::uint64_t row, Cycle now,
                ThreadId tid = kInvalidThread);

    /**
     * Attach a command observer (protocol checker); every issued
     * command is reported to it. Pass nullptr to detach. Not owned.
     */
    void setObserver(CommandObserver *observer) { observer_ = observer; }

    /**
     * Bumped by every change to channel state, i.e. by issue() and
     * blockBank(): a readyAt() answer holds while it is unchanged.
     */
    std::uint64_t generation() const { return generation_; }

    /** Read-only bank state: its subarrays and the bank-level views
     *  (for the controller, refresh engine and tests). */
    const BankState &
    bank(unsigned rank, unsigned bank_idx) const
    {
        DBP_ASSERT(rank < ranks_.size(), "rank out of range");
        DBP_ASSERT(bank_idx < banksPerRank_, "bank out of range");
        return bankAt(rank, bank_idx);
    }

    /** Read-only rank state (for tests). */
    const RankState &
    rank(unsigned rank_idx) const
    {
        DBP_ASSERT(rank_idx < ranks_.size(), "rank out of range");
        return ranks_[rank_idx];
    }

    /** True iff row @p row is open in the given bank. */
    bool
    rowOpen(unsigned rank, unsigned bank_idx, std::uint64_t row) const
    {
        const SubarrayState &s = bank(rank, bank_idx).subs[subarrayOf(row)];
        return s.open && s.row == row;
    }

    /** Channel id. */
    unsigned id() const { return id_; }

    /** Ranks in this channel. */
    unsigned numRanks() const { return static_cast<unsigned>(ranks_.size()); }

    /** Banks per rank. */
    unsigned numBanks() const { return banksPerRank_; }

    /** Timing in use. */
    const DramTiming &timing() const { return timing_; }

    /** Subarray-level parallelism mode. */
    SalpMode salpMode() const { return salp_; }

    /** Subarray index of a row (always 0 with salp=none). */
    unsigned subarrayOf(std::uint64_t row) const
    {
        return static_cast<unsigned>(row & (subarraysPerBank_ - 1));
    }

    /**
     * Artificially occupy a bank for @p busy cycles starting at @p now
     * (used by the page-migration cost model). Blocks ACT/PRE/column
     * commands to that bank until now + busy.
     */
    void blockBank(unsigned rank, unsigned bank_idx, Cycle now, Cycle busy);

    /** @name Command counters (for the energy model and tests). */
    /// @{
    StatScalar statActs;
    StatScalar statPrecharges;
    StatScalar statReads;
    StatScalar statWrites;
    StatScalar statRefreshes;
    StatScalar statRefreshesPb; ///< per-bank REFpb commands.
    StatScalar statSaSels;      ///< MASA SA_SEL relink commands.
    /// @}

  private:
    /** First cycle a column command to @p rank may issue so that its
     *  burst finds the data bus free. */
    Cycle dataBusReadyAt(unsigned rank, bool is_write) const;

    /** State of one bank (unchecked indices). */
    BankState &bankAt(unsigned rank_idx, unsigned bank_idx)
    {
        return banks_[rank_idx * banksPerRank_ + bank_idx];
    }
    const BankState &bankAt(unsigned rank_idx, unsigned bank_idx) const
    {
        return banks_[rank_idx * banksPerRank_ + bank_idx];
    }

    /** Push every command to @p b's subarrays past @p until (REFpb,
     *  migration cost). */
    void occupyBank(BankState &b, Cycle until);

    /** Record a data burst occupying the bus until @p data_end. */
    void occupyDataBus(unsigned rank, bool is_write, Cycle data_end);

    /** First cycle an ACT to @p r fits the tFAW four-activate window. */
    Cycle fawReadyAt(const RankState &r) const;

    DramTiming timing_;
    unsigned id_;
    unsigned banksPerRank_;
    SalpMode salp_;
    unsigned subarraysPerBank_;

    std::vector<RankState> ranks_;
    std::vector<BankState> banks_; ///< [rank * banksPerRank_ + bank].

    CommandObserver *observer_ = nullptr; ///< protocol checker hook.

    std::uint64_t generation_ = 0; ///< see generation().

    Cycle nextColCmd_ = 0;     ///< tCCD between column commands.
    Cycle dataBusFreeAt_ = 0;  ///< end of last data burst.
    int lastDataRank_ = -1;    ///< rank of last data burst.
    bool lastDataWrite_ = false; ///< direction of last data burst.
};

} // namespace dbpsim

#endif // DBPSIM_DRAM_CHANNEL_HH
