/**
 * @file
 * Per-channel DRAM refresh engine.
 *
 * Owns the refresh *policy* and every refresh deadline of one channel;
 * the DramChannel owns only the timing *mechanics* (what REF/REFpb do
 * to bank and rank state). The engine schedules refresh *units*: a
 * rank under all-bank refresh, a bank under per-bank refresh. Each
 * unit has one deadline, first due at tREFI * (u + 1) / units so the
 * units spread evenly over tREFI, and advancing by tREFI per refresh.
 * Three modes:
 *
 *  - AllBank: DDR3 auto-refresh. When a rank's deadline passes, the
 *    rank is drained (its requests are held back, open banks are
 *    precharged) and an all-bank REF blocks the whole rank for tRFC.
 *
 *  - PerBank: REFpb, one bank every tREFI / banks-in-channel. Only the
 *    refreshing bank is blocked (for tRFCpb < tRFC); the other banks
 *    of the rank keep serving requests. With bank partitioning this
 *    means a thread only ever stalls on refreshes of its *own* banks
 *    — the refresh-access parallelism the DARP papers exploit.
 *
 *  - None: refresh disabled (idealized DRAM; the pre-refresh model).
 *
 * One rule drives both unit kinds. A unit is forced at its deadline:
 * its requests are held back and it is drained until the refresh can
 * issue. The refresh-aware option (DARP-style) changes *when* units
 * refresh: idle units are pulled in ahead of their deadline (up to the
 * JEDEC 8-deep pull-in credit), busy ones are postponed (up to the
 * 8-deep postpone debt) and, per-bank, refreshed out of order, away
 * from banks with queued requests. An aware unit is forced once its
 * debt reaches the postpone bound — or once the gap since its last
 * refresh reaches postponeMax * tREFI, which matters after a pull-in
 * burst has banked credit — so the (postponeMax + 1) * tREFI device
 * window is never exceeded. One tREFI before that it is drain-boosted.
 *
 * A tick that issues nothing also says how long it stays quiet:
 * quietUntil() is the earliest later cycle at which any test it made
 * could come out differently while the channel and the queued demand
 * stay as they are. The controller skips tick() until then unless the
 * channel's generation() or its queue-push count moves; the masks of
 * the last tick stay valid meanwhile.
 */

#ifndef DBPSIM_DRAM_REFRESH_HH
#define DBPSIM_DRAM_REFRESH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "dram/channel.hh"

namespace dbpsim {

/** Refresh policy selector (config key "refresh"). */
enum class RefreshMode
{
    None,    ///< no refresh at all (idealized DRAM).
    AllBank, ///< DDR3 all-bank REF, rank blocked for tRFC.
    PerBank, ///< round-robin REFpb, one bank blocked for tRFCpb.
};

/** Stable config-facing name ("none" | "allbank" | "perbank"). */
const char *refreshModeName(RefreshMode mode);

/** Parse a mode name; "darp" is not a mode (it sets aware too), so
 *  callers handle it separately. fatal() on unknown names. */
RefreshMode refreshModeByName(const std::string &name);

/**
 * Refresh engine configuration.
 */
struct RefreshParams
{
    RefreshMode mode = RefreshMode::AllBank;

    /** DARP-style refresh-aware issue (pull-in / postpone / reorder). */
    bool aware = false;

    /**
     * Refreshes that may be postponed past (or pulled in ahead of)
     * their nominal deadline; JEDEC DDR3 allows 8. Per-bank mode
     * applies the bound to each bank's own tREFI cadence.
     */
    unsigned postponeMax = 8;
};

/**
 * Demand feedback for refresh-aware decisions: does the controller
 * hold queued requests for a rank / bank? Implemented by the
 * controller; only consulted when RefreshParams::aware is set.
 */
class RefreshDemandView
{
  public:
    virtual ~RefreshDemandView() = default;

    /** Any queued read or write targeting (rank, bank)? */
    virtual bool hasBankDemand(unsigned rank, unsigned bank) const = 0;

    /** Any queued read or write targeting the rank at all? */
    virtual bool hasRankDemand(unsigned rank) const = 0;
};

/**
 * The engine. One instance per channel, driven once per bus cycle
 * before the request path; it may consume the command-bus slot.
 */
class RefreshEngine
{
  public:
    /**
     * @param channel The channel to refresh (not owned).
     * @param demand Demand view for aware mode; may be null (treated
     *               as never-idle, i.e. no pull-in, demand everywhere).
     * @param params Mode and window configuration.
     */
    RefreshEngine(DramChannel &channel, const RefreshDemandView *demand,
                  RefreshParams params);

    /**
     * One cycle of refresh management at bus cycle @p now. May issue
     * at most one command (REF, REFpb, or a draining PRE) on the
     * channel; returns true iff it did (the command bus is consumed).
     */
    bool tick(Cycle now);

    /**
     * After a tick() that issued nothing: the earliest later cycle at
     * which a tick could act or set other masks, if the channel's
     * state and the demand view's answers do not change before then.
     * Its terms are every unit's forced-from cycle (and when aware its
     * boost cycle, one tREFI earlier), the aware relaxed pass's
     * deadlines of units not yet owed and their re-entry into the
     * pull-in window, a refreshing rank's end of tRFC, and the readyAt
     * of every REF/REFpb or draining PRE the tick found not yet legal.
     * kNeverCycle when nothing is pending; now + 1 after a tick that
     * issued.
     */
    Cycle quietUntil() const { return quietUntil_; }

    /**
     * True when the request path must hold back requests to
     * (rank, bank) so a due refresh can start: the whole rank during
     * an all-bank drain, only the target bank in per-bank mode.
     * Valid for the cycle of the last tick().
     */
    bool
    blocks(unsigned rank, unsigned bank) const
    {
        return blocked_[rank * channel_.numBanks() + bank] != 0;
    }

    /**
     * Aware mode: true when (rank, bank) should be *drained with
     * priority* because its unit is one tREFI away from being forced.
     * The controller boosts such requests so the bank goes idle before
     * the refresh turns urgent. Always false when not aware.
     */
    bool
    drainBoost(unsigned rank, unsigned bank) const
    {
        return boost_[rank * channel_.numBanks() + bank] != 0;
    }

    /**
     * @name The schedule of the unit covering (rank, bank): the rank
     * under all-bank refresh (@p bank only selects the rank's unit),
     * the bank itself under per-bank refresh.
     */
    /// @{
    /** Owed-but-unissued refreshes at @p now; 0 when ahead of
     *  schedule. */
    std::uint64_t debt(unsigned rank, unsigned bank, Cycle now) const;

    /** Next deadline; advances by tREFI with every refresh. */
    Cycle dueAt(unsigned rank, unsigned bank) const;

    /** Cycle of the unit's last refresh (0 before the first). */
    Cycle lastRefreshAt(unsigned rank, unsigned bank) const;
    /// @}

    /** Parameters in use. */
    const RefreshParams &params() const { return params_; }

  private:
    /** Schedule of one refresh unit. */
    struct Unit
    {
        Cycle dueAt = 0;
        /** The device bounds the *issue-to-issue* gap, so aware
         *  engines force on elapsed time as well as on debt. */
        Cycle lastAt = 0;
    };

    /** The unit covering (rank, bank). */
    const Unit &unitAt(unsigned rank, unsigned bank) const;

    /** First cycle at which @p u must refresh whatever the demand. */
    Cycle forcedFrom(const Unit &u) const;

    /** No queued demand on unit @p i of @p rank (never without a
     *  demand view)? */
    bool idle(unsigned rank, unsigned i) const;

    /** Fold @p at into the quiet horizon if it lies after @p now. */
    void
    wake(Cycle at, Cycle now)
    {
        if (at > now && at < quietUntil_)
            quietUntil_ = at;
    }

    /** Can unit @p i of @p rank refresh at @p now? A REF/REFpb not yet
     *  legal wakes the engine at its readyAt. */
    bool canRefresh(unsigned rank, unsigned i, Cycle now);

    /** Issue unit @p i's REF/REFpb and advance its deadline. */
    void refresh(unsigned rank, unsigned i, Cycle now);

    /** Does a bank of unit @p i of @p rank hold an open row? */
    bool open(unsigned rank, unsigned i) const;

    /** First open bank of unit @p i that can be precharged at @p now;
     *  numBanks() when there is none. Each open bank's PRE not yet
     *  legal wakes the engine at its readyAt. */
    unsigned drainable(unsigned rank, unsigned i, Cycle now);

    /** Set unit @p i's banks in one rank's @p rank_mask to @p value. */
    void mark(char *rank_mask, unsigned i, char value) const;

    DramChannel &channel_;
    const RefreshDemandView *demand_;
    RefreshParams params_;

    Cycle trefi_;
    Cycle postponeSlack_; ///< (postponeMax - 1) * tREFI.
    Cycle pullInWindow_;  ///< postponeMax * tREFI.

    DramCmd refreshCmd_;    ///< REF or REFpb.
    unsigned unitBanks_;    ///< banks per unit: a rank's, or 1.
    unsigned unitsPerRank_; ///< numBanks() / unitBanks_.

    /** Unit schedules, [rank * unitsPerRank_ + i]. */
    std::vector<Unit> units_;

    /** See quietUntil(); recomputed by every tick(). */
    Cycle quietUntil_ = 0;

    /** Hold-back masks recomputed by tick(), [rank * banks + bank]. */
    std::vector<char> blocked_;

    /** Aware-mode drain-priority masks, [rank * banks + bank]. */
    std::vector<char> boost_;
};

} // namespace dbpsim

#endif // DBPSIM_DRAM_REFRESH_HH
