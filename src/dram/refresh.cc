#include "dram/refresh.hh"

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
      pullInWindow_(static_cast<Cycle>(params.postponeMax) *
                    channel.timing().tREFI)
{
    DBP_ASSERT(params_.postponeMax >= 1,
               "refresh postpone window must be >= 1");
    const unsigned ranks = channel_.numRanks();
    const unsigned banks = channel_.numBanks();
    bankDueAt_.resize(ranks);
    rankLastRefreshAt_.assign(ranks, 0);
    bankLastRefreshAt_.resize(ranks);
    blocked_.resize(ranks);
    boost_.resize(ranks);
    for (unsigned r = 0; r < ranks; ++r) {
        bankDueAt_[r].resize(banks);
        bankLastRefreshAt_[r].assign(banks, 0);
        blocked_[r].assign(banks, 0);
        boost_[r].assign(banks, 0);
        // Stagger the REFpb slots evenly across the whole channel so
        // per-bank refreshes spread over tREFI instead of bursting
        // (the per-bank analogue of the channel's rank stagger).
        for (unsigned b = 0; b < banks; ++b)
            bankDueAt_[r][b] = trefi_ *
                (static_cast<Cycle>(r) * banks + b + 1) /
                (static_cast<Cycle>(ranks) * banks);
    }
}

bool
RefreshEngine::blocks(unsigned rank, unsigned bank) const
{
    return blocked_.at(rank).at(bank) != 0;
}

bool
RefreshEngine::drainBoost(unsigned rank, unsigned bank) const
{
    return boost_.at(rank).at(bank) != 0;
}

std::uint64_t
RefreshEngine::debt(unsigned rank, Cycle now) const
{
    const RankState &rs = channel_.rank(rank);
    if (now < rs.refreshDueAt)
        return 0;
    return (now - rs.refreshDueAt) / trefi_ + 1;
}

std::uint64_t
RefreshEngine::bankDebt(unsigned rank, unsigned bank, Cycle now) const
{
    Cycle due = bankDueAt_.at(rank).at(bank);
    if (now < due)
        return 0;
    return (now - due) / trefi_ + 1;
}

Cycle
RefreshEngine::bankDueAt(unsigned rank, unsigned bank) const
{
    return bankDueAt_.at(rank).at(bank);
}

Cycle
RefreshEngine::lastRefreshAt(unsigned rank) const
{
    return rankLastRefreshAt_.at(rank);
}

Cycle
RefreshEngine::lastRefreshAt(unsigned rank, unsigned bank) const
{
    return bankLastRefreshAt_.at(rank).at(bank);
}

bool
RefreshEngine::rankIdle(unsigned rank) const
{
    // Without a demand view the engine must assume demand everywhere:
    // no pull-in, postpone until forced.
    return demand_ && !demand_->hasRankDemand(rank);
}

bool
RefreshEngine::bankIdle(unsigned rank, unsigned bank) const
{
    return demand_ && !demand_->hasBankDemand(rank, bank);
}

bool
RefreshEngine::prechargeOne(unsigned rank, Cycle now)
{
    for (unsigned b = 0; b < channel_.numBanks(); ++b) {
        const BankState &bs = channel_.bank(rank, b);
        // The PRE's row selects the subarray it closes.
        if (bs.open() &&
            channel_.canIssue(DramCmd::Precharge, rank, b, bs.row(),
                              now)) {
            channel_.issue(DramCmd::Precharge, rank, b, bs.row(), now);
            return true;
        }
    }
    return false;
}

bool
RefreshEngine::tick(Cycle now)
{
    if (trefi_ == 0)
        return false; // refresh disabled at the timing level.
    switch (params_.mode) {
      case RefreshMode::None:
        return false;
      case RefreshMode::AllBank:
        return params_.aware ? tickAllBankAware(now) : tickAllBank(now);
      case RefreshMode::PerBank:
        return tickPerBank(now);
    }
    DBP_PANIC("unreachable RefreshMode");
}

bool
RefreshEngine::tickAllBank(Cycle now)
{
    // The reference all-bank sequence: once a rank's deadline passes,
    // hold its requests back, close open banks, and issue REF as soon
    // as the rank is quiet. One command per cycle across all ranks.
    bool issued = false;
    for (unsigned r = 0; r < channel_.numRanks(); ++r) {
        blocked_[r].assign(blocked_[r].size(), 0);
        if (!channel_.refreshPending(r, now))
            continue;
        blocked_[r].assign(blocked_[r].size(), 1);
        if (issued)
            continue; // command bus already used this cycle.
        if (channel_.canIssue(DramCmd::Refresh, r, 0, 0, now)) {
            channel_.issue(DramCmd::Refresh, r, 0, 0, now);
            rankLastRefreshAt_[r] = now;
            blocked_[r].assign(blocked_[r].size(), 0);
            issued = true;
            continue;
        }
        if (prechargeOne(r, now))
            issued = true;
    }
    return issued;
}

bool
RefreshEngine::tickAllBankAware(Cycle now)
{
    bool issued = false;
    for (unsigned r = 0; r < channel_.numRanks(); ++r) {
        blocked_[r].assign(blocked_[r].size(), 0);
        boost_[r].assign(boost_[r].size(), 0);
        const RankState &rs = channel_.rank(r);
        if (rs.refreshing(now))
            continue;
        const std::uint64_t d = debt(r, now);
        // Two independent deadlines force a refresh: the schedule debt
        // exhausting the postpone window, and the device bound on the
        // issue-to-issue gap (after a pull-in burst the schedule is
        // ahead, but the gap clock keeps running).
        const Cycle gap = now - rankLastRefreshAt_[r];

        if (d >= params_.postponeMax || gap >= pullInWindow_) {
            // Postpone window exhausted: force, as the non-aware
            // engine would from the start.
            blocked_[r].assign(blocked_[r].size(), 1);
            if (issued)
                continue;
            if (channel_.canIssue(DramCmd::Refresh, r, 0, 0, now)) {
                channel_.issue(DramCmd::Refresh, r, 0, 0, now);
                rankLastRefreshAt_[r] = now;
                blocked_[r].assign(blocked_[r].size(), 0);
                issued = true;
                continue;
            }
            if (prechargeOne(r, now))
                issued = true;
            continue;
        }
        if (d + 1 >= params_.postponeMax || gap + trefi_ >= pullInWindow_)
            boost_[r].assign(boost_[r].size(), 1);
        if (issued)
            continue;
        // Pull refreshes into idle periods; catch up on owed ones.
        if (!rankIdle(r))
            continue;
        const bool owed = d > 0;
        if (!owed && rs.refreshDueAt - now >= pullInWindow_)
            continue; // 8-deep pull-in credit already banked.
        if (channel_.canIssue(DramCmd::Refresh, r, 0, 0, now)) {
            channel_.issue(DramCmd::Refresh, r, 0, 0, now);
            rankLastRefreshAt_[r] = now;
            issued = true;
        } else if (owed && prechargeOne(r, now)) {
            issued = true;
        }
    }
    return issued;
}

bool
RefreshEngine::tickPerBank(Cycle now)
{
    const unsigned banks = channel_.numBanks();
    bool issued = false;
    for (unsigned r = 0; r < channel_.numRanks(); ++r) {
        blocked_[r].assign(banks, 0);
        boost_[r].assign(banks, 0);
        const RankState &rs = channel_.rank(r);
        if (rs.refreshing(now))
            continue; // defensive: an all-bank REF is in flight.

        // Forced pass: the bank whose force deadline is furthest in
        // the past must refresh now. Non-aware engines force as soon
        // as the nominal deadline passes (strict round-robin by
        // stagger); aware engines once the postpone debt is exhausted
        // — or once the issue-to-issue gap nears the device bound,
        // whichever comes first (the gap clock matters after a
        // pull-in burst banked schedule credit).
        const std::uint64_t force_at = params_.aware
            ? static_cast<std::uint64_t>(params_.postponeMax) : 1;
        auto forceDeadline = [&](unsigned b) {
            Cycle by_debt = bankDueAt_[r][b] + (force_at - 1) * trefi_;
            if (!params_.aware)
                return by_debt;
            Cycle by_gap = bankLastRefreshAt_[r][b] + pullInWindow_;
            return by_debt < by_gap ? by_debt : by_gap;
        };
        unsigned forced = banks;
        for (unsigned b = 0; b < banks; ++b) {
            if (now < forceDeadline(b))
                continue;
            if (forced == banks ||
                forceDeadline(b) < forceDeadline(forced))
                forced = b;
        }
        if (params_.aware) {
            // One tREFI from the forced bound: drain with priority.
            for (unsigned b = 0; b < banks; ++b)
                if (now + trefi_ >= forceDeadline(b))
                    boost_[r][b] = 1;
        }
        if (forced != banks) {
            unsigned b = forced;
            blocked_[r][b] = 1;
            if (issued)
                continue;
            const BankState &bs = channel_.bank(r, b);
            if (bs.open()) {
                if (channel_.canIssue(DramCmd::Precharge, r, b, bs.row(),
                                      now)) {
                    channel_.issue(DramCmd::Precharge, r, b, bs.row(),
                                   now);
                    issued = true;
                }
            } else if (channel_.canIssue(DramCmd::RefreshBank, r, b, 0,
                                         now)) {
                channel_.issue(DramCmd::RefreshBank, r, b, 0, now);
                bankDueAt_[r][b] += trefi_;
                bankLastRefreshAt_[r][b] = now;
                blocked_[r][b] = 0;
                issued = true;
            }
            continue;
        }
        if (!params_.aware || issued)
            continue;

        // Relaxed pass (aware only): refresh an idle bank — owed
        // first, then pull-ins within the credit window — reordering
        // away from banks with queued demand.
        unsigned pick = banks;
        unsigned open_pick = banks;
        for (unsigned b = 0; b < banks; ++b) {
            Cycle due = bankDueAt_[r][b];
            const bool owed = now >= due;
            if (!owed && due - now >= pullInWindow_)
                continue;
            if (!bankIdle(r, b))
                continue;
            const BankState &bs = channel_.bank(r, b);
            if (bs.refreshing(now))
                continue;
            if (!bs.open() &&
                channel_.canIssue(DramCmd::RefreshBank, r, b, 0, now)) {
                if (pick == banks || due < bankDueAt_[r][pick])
                    pick = b;
            } else if (bs.open() && owed &&
                       channel_.canIssue(DramCmd::Precharge, r, b,
                                         bs.row(), now)) {
                if (open_pick == banks ||
                    due < bankDueAt_[r][open_pick])
                    open_pick = b;
            }
        }
        if (pick != banks) {
            channel_.issue(DramCmd::RefreshBank, r, pick, 0, now);
            bankDueAt_[r][pick] += trefi_;
            bankLastRefreshAt_[r][pick] = now;
            issued = true;
        } else if (open_pick != banks) {
            channel_.issue(DramCmd::Precharge, r, open_pick,
                           channel_.bank(r, open_pick).row(), now);
            issued = true;
        }
    }
    return issued;
}

} // namespace dbpsim
