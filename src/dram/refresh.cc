#include "dram/refresh.hh"

#include <algorithm>

#include "common/log.hh"

namespace dbpsim {

const char *
refreshModeName(RefreshMode mode)
{
    switch (mode) {
      case RefreshMode::None: return "none";
      case RefreshMode::AllBank: return "allbank";
      case RefreshMode::PerBank: return "perbank";
    }
    DBP_PANIC("unreachable RefreshMode");
}

RefreshMode
refreshModeByName(const std::string &name)
{
    if (name == "none")
        return RefreshMode::None;
    if (name == "allbank" || name == "all-bank")
        return RefreshMode::AllBank;
    if (name == "perbank" || name == "per-bank")
        return RefreshMode::PerBank;
    fatal("unknown refresh mode '", name,
          "' (expected none|allbank|perbank)");
}

RefreshEngine::RefreshEngine(DramChannel &channel,
                             const RefreshDemandView *demand,
                             RefreshParams params)
    : channel_(channel), demand_(demand), params_(params),
      trefi_(channel.timing().tREFI),
      postponeSlack_((params.postponeMax - Cycle{1}) * trefi_),
      pullInWindow_(params.postponeMax * trefi_),
      refreshCmd_(params.mode == RefreshMode::PerBank
                      ? DramCmd::RefreshBank
                      : DramCmd::Refresh),
      unitBanks_(params.mode == RefreshMode::PerBank
                     ? 1
                     : channel.numBanks()),
      unitsPerRank_(channel.numBanks() / unitBanks_)
{
    DBP_ASSERT(params_.postponeMax >= 1,
               "refresh postpone window must be >= 1");
    blocked_.assign(std::size_t{channel_.numRanks()} * channel_.numBanks(),
                    0);
    boost_ = blocked_;
    // Stagger the deadlines evenly across the channel so refreshes
    // spread over tREFI instead of bursting.
    units_.resize(std::size_t{channel_.numRanks()} * unitsPerRank_);
    for (std::size_t u = 0; u < units_.size(); ++u)
        units_[u].dueAt = trefi_ * (u + 1) / units_.size();
}

const RefreshEngine::Unit &
RefreshEngine::unitAt(unsigned rank, unsigned bank) const
{
    DBP_ASSERT(bank < channel_.numBanks(), "bank out of range");
    return units_.at(std::size_t{rank} * unitsPerRank_ +
                     bank / unitBanks_);
}

std::uint64_t
RefreshEngine::debt(unsigned rank, unsigned bank, Cycle now) const
{
    const Cycle due = unitAt(rank, bank).dueAt;
    if (now < due)
        return 0;
    return (now - due) / trefi_ + 1;
}

Cycle
RefreshEngine::dueAt(unsigned rank, unsigned bank) const
{
    return unitAt(rank, bank).dueAt;
}

Cycle
RefreshEngine::lastRefreshAt(unsigned rank, unsigned bank) const
{
    return unitAt(rank, bank).lastAt;
}

// tick() calls the helpers marked inline for every unit every cycle.

inline Cycle
RefreshEngine::forcedFrom(const Unit &u) const
{
    // debt >= postponeMax exactly when now >= dueAt + postponeSlack_.
    if (!params_.aware)
        return u.dueAt;
    return std::min(u.dueAt + postponeSlack_, u.lastAt + pullInWindow_);
}

inline bool
RefreshEngine::idle(unsigned rank, unsigned i) const
{
    // Without a demand view the engine must assume demand everywhere:
    // no pull-in, postpone until forced.
    if (!demand_)
        return false;
    return params_.mode == RefreshMode::PerBank
        ? !demand_->hasBankDemand(rank, i)
        : !demand_->hasRankDemand(rank);
}

inline bool
RefreshEngine::canRefresh(unsigned rank, unsigned i, Cycle now)
{
    const Cycle ready =
        channel_.readyAt(refreshCmd_, rank, i * unitBanks_, 0);
    wake(ready, now);
    return ready <= now;
}

void
RefreshEngine::refresh(unsigned rank, unsigned i, Cycle now)
{
    channel_.issue(refreshCmd_, rank, i * unitBanks_, 0, now);
    Unit &u = units_[std::size_t{rank} * unitsPerRank_ + i];
    u.dueAt += trefi_;
    u.lastAt = now;
}

inline bool
RefreshEngine::open(unsigned rank, unsigned i) const
{
    for (unsigned b = i * unitBanks_; b < (i + 1) * unitBanks_; ++b)
        if (channel_.bank(rank, b).open())
            return true;
    return false;
}

unsigned
RefreshEngine::drainable(unsigned rank, unsigned i, Cycle now)
{
    for (unsigned b = i * unitBanks_; b < (i + 1) * unitBanks_; ++b) {
        const BankState &bs = channel_.bank(rank, b);
        if (!bs.open())
            continue;
        // The PRE's row selects the subarray it closes.
        const Cycle ready =
            channel_.readyAt(DramCmd::Precharge, rank, b, bs.row());
        if (ready <= now)
            return b;
        wake(ready, now);
    }
    return channel_.numBanks();
}

inline void
RefreshEngine::mark(char *rank_mask, unsigned i, char value) const
{
    for (unsigned b = i * unitBanks_; b < (i + 1) * unitBanks_; ++b)
        rank_mask[b] = value;
}

bool
RefreshEngine::tick(Cycle now)
{
    // Every test below that could come out differently later, with
    // channel and demand unchanged, wakes the engine at that cycle.
    quietUntil_ = kNeverCycle;
    if (params_.mode == RefreshMode::None)
        return false;
    const bool aware = params_.aware;
    const unsigned none = unitsPerRank_;
    const unsigned banks = channel_.numBanks();
    bool issued = false; // at most one command per cycle.
    for (unsigned r = 0; r < channel_.numRanks(); ++r) {
        char *blocked = &blocked_[std::size_t{r} * banks];
        char *boost = &boost_[std::size_t{r} * banks];
        std::fill(blocked, blocked + banks, 0);
        if (aware)
            std::fill(boost, boost + banks, 0);
        const RankState &rank_state = channel_.rank(r);
        if (rank_state.refreshing(now)) {
            wake(rank_state.refreshDoneAt, now);
            continue;
        }
        const Unit *units = &units_[std::size_t{r} * unitsPerRank_];

        // Forced pass: the unit forced longest ago must refresh now.
        // Hold its requests back and drain it until the refresh
        // issues. Aware units are drain-boosted one tREFI earlier.
        unsigned forced = none;
        Cycle forced_from = 0;
        for (unsigned i = 0; i < none; ++i) {
            const Cycle from = forcedFrom(units[i]);
            wake(from, now);
            if (aware) {
                if (now + trefi_ >= from)
                    mark(boost, i, 1);
                else
                    wake(from - trefi_, now);
            }
            if (now >= from && (forced == none || from < forced_from)) {
                forced = i;
                forced_from = from;
            }
        }
        if (forced != none) {
            mark(blocked, forced, 1);
            if (issued)
                continue;
            if (canRefresh(r, forced, now)) {
                refresh(r, forced, now);
                mark(blocked, forced, 0);
                issued = true;
            } else if (unsigned b = drainable(r, forced, now);
                       b != channel_.numBanks()) {
                channel_.issue(DramCmd::Precharge, r, b,
                               channel_.bank(r, b).row(), now);
                issued = true;
            }
            continue;
        }
        if (!aware || issued)
            continue;

        // Relaxed pass (aware only): refresh an idle unit — owed
        // first, then pull-ins within the credit window — in deadline
        // order, away from units with queued demand. An owed unit
        // that is still open gets drained instead.
        unsigned pick = none;
        unsigned open_pick = none;
        for (unsigned i = 0; i < none; ++i) {
            const Cycle due = units[i].dueAt;
            const bool owed = now >= due;
            if (!owed) {
                if (due - now >= pullInWindow_) {
                    // Pull-in credit already banked until the unit
                    // re-enters the window.
                    wake(due - pullInWindow_ + 1, now);
                    continue;
                }
                wake(due, now);
            }
            if (!idle(r, i))
                continue;
            // Open rows rule the refresh out; test that first, as the
            // cheaper check.
            if (!open(r, i)) {
                if (canRefresh(r, i, now) &&
                    (pick == none || due < units[pick].dueAt))
                    pick = i;
            } else if (owed &&
                       drainable(r, i, now) != channel_.numBanks()) {
                if (open_pick == none || due < units[open_pick].dueAt)
                    open_pick = i;
            }
        }
        if (pick != none) {
            refresh(r, pick, now);
            issued = true;
        } else if (open_pick != none) {
            const unsigned b = drainable(r, open_pick, now);
            channel_.issue(DramCmd::Precharge, r, b,
                           channel_.bank(r, b).row(), now);
            issued = true;
        }
    }
    if (issued)
        quietUntil_ = now + 1;
    return issued;
}

} // namespace dbpsim
