#include "dram/channel.hh"

#include <algorithm>

#include "common/log.hh"

namespace dbpsim {

const char *
dramCmdName(DramCmd cmd)
{
    switch (cmd) {
      case DramCmd::Activate: return "ACT";
      case DramCmd::Precharge: return "PRE";
      case DramCmd::Read: return "RD";
      case DramCmd::Write: return "WR";
      case DramCmd::ReadAp: return "RDA";
      case DramCmd::WriteAp: return "WRA";
      case DramCmd::SaSel: return "SASEL";
      case DramCmd::Refresh: return "REF";
      case DramCmd::RefreshBank: return "REFpb";
    }
    DBP_PANIC("unreachable DramCmd");
}

DramChannel::DramChannel(const DramGeometry &geom, const DramTiming &timing,
                         unsigned channel_id, SalpMode salp)
    : timing_(timing), id_(channel_id), banksPerRank_(geom.banksPerRank),
      salp_(salp),
      subarraysPerBank_(salp == SalpMode::None ? 1 : geom.subarraysPerBank)
{
    std::string err = timing.validate();
    if (!err.empty())
        fatal("invalid DRAM timing: ", err);

    ranks_.resize(geom.ranksPerChannel);
    banks_.resize(static_cast<std::size_t>(geom.ranksPerChannel) *
                  geom.banksPerRank);
    for (BankState &b : banks_)
        b.subs.resize(subarraysPerBank_);
}

Cycle
DramChannel::fawReadyAt(const RankState &r) const
{
    if (r.actWindowFill < 4)
        return 0;
    // The oldest of the last four ACTs is at actWindowPtr (next to be
    // overwritten). A fifth ACT must wait tFAW after it.
    return r.actWindow[r.actWindowPtr] + timing_.tFAW;
}

Cycle
DramChannel::dataBusReadyAt(unsigned rank, bool is_write) const
{
    // The burst starts tCL (tCWL) after the command and must find the
    // bus free, plus tRTRS when the rank or direction switches.
    Cycle required = dataBusFreeAt_;
    bool switch_penalty = lastDataRank_ >= 0 &&
        (static_cast<unsigned>(lastDataRank_) != rank ||
         lastDataWrite_ != is_write);
    if (switch_penalty)
        required += timing_.tRTRS;
    const Cycle latency = is_write ? timing_.tCWL : timing_.tCL;
    return required > latency ? required - latency : 0;
}

void
DramChannel::occupyDataBus(unsigned rank, bool is_write, Cycle data_end)
{
    dataBusFreeAt_ = data_end;
    lastDataRank_ = static_cast<int>(rank);
    lastDataWrite_ = is_write;
}

Cycle
DramChannel::readyAt(DramCmd cmd, unsigned rank_idx, unsigned bank_idx,
                     std::uint64_t row) const
{
    DBP_ASSERT(rank_idx < ranks_.size(), "rank out of range");
    const RankState &r = ranks_[rank_idx];

    if (cmd != DramCmd::Refresh)
        DBP_ASSERT(bank_idx < banksPerRank_, "bank out of range");

    // A refreshing rank accepts nothing until tRFC elapses. (Subarray
    // nextActivate is also pushed out by refresh, but column commands
    // and precharges must be held back explicitly.)
    const Cycle refreshed = r.refreshDoneAt;

    switch (cmd) {
      case DramCmd::Activate: {
        const BankState &b = bankAt(rank_idx, bank_idx);
        const SubarrayState &s = b.subs[subarrayOf(row)];
        // Only MASA keeps rows open in several subarrays at once.
        // SALP-1/2 let the ACT overlap another subarray's in-flight
        // precharge (its nextActivate is not consulted), but every
        // subarray must at least have been issued its PRE.
        if (salp_ == SalpMode::Masa ? s.open : b.open())
            return kNeverCycle;
        return std::max({refreshed, s.nextActivate, r.nextActivate,
                         fawReadyAt(r)});
      }
      case DramCmd::Precharge: {
        const BankState &b = bankAt(rank_idx, bank_idx);
        return std::max(refreshed, b.subs[subarrayOf(row)].nextPrecharge);
      }
      case DramCmd::Read:
      case DramCmd::ReadAp:
      case DramCmd::Write:
      case DramCmd::WriteAp: {
        const BankState &b = bankAt(rank_idx, bank_idx);
        const unsigned si = subarrayOf(row);
        const SubarrayState &s = b.subs[si];
        // Only the designated subarray drives the global bitlines. An
        // ACT designates its own subarray at once, so outside MASA
        // (no SA_SEL) every open subarray is the designated one.
        if (!s.open || s.row != row || b.designated != si)
            return kNeverCycle;
        if (cmd == DramCmd::Read || cmd == DramCmd::ReadAp)
            return std::max({refreshed, b.designateReadyAt, s.nextRead,
                             r.nextRead, nextColCmd_,
                             dataBusReadyAt(rank_idx, false)});
        return std::max({refreshed, b.designateReadyAt, s.nextWrite,
                         nextColCmd_, dataBusReadyAt(rank_idx, true)});
      }
      case DramCmd::SaSel: {
        if (salp_ != SalpMode::Masa)
            return kNeverCycle;
        const BankState &b = bankAt(rank_idx, bank_idx);
        const SubarrayState &s = b.subs[subarrayOf(row)];
        if (!s.open || s.row != row)
            return kNeverCycle;
        // Relinks serialize.
        return std::max(refreshed, b.designateReadyAt);
      }
      case DramCmd::Refresh: {
        // Every subarray of every bank closed and past its precharge
        // recovery (tRP folded into nextActivate by the PRE effect).
        Cycle ready = refreshed;
        for (unsigned b = 0; b < banksPerRank_; ++b) {
            const BankState &bs = bankAt(rank_idx, b);
            if (bs.open())
                return kNeverCycle;
            ready = std::max(ready, bs.nextActivate());
        }
        return ready;
      }
      case DramCmd::RefreshBank: {
        // Like an ACT slot: the target bank must be closed and past
        // its precharge recovery; other banks are unaffected.
        const BankState &b = bankAt(rank_idx, bank_idx);
        if (b.open())
            return kNeverCycle;
        return std::max(refreshed, b.nextActivate());
      }
    }
    DBP_PANIC("unreachable DramCmd");
}

Cycle
DramChannel::issue(DramCmd cmd, unsigned rank_idx, unsigned bank_idx,
                   std::uint64_t row, Cycle now, ThreadId tid)
{
    DBP_ASSERT(canIssue(cmd, rank_idx, bank_idx, row, now),
               "illegal " << dramCmdName(cmd) << " to ch" << id_
               << " rank" << rank_idx << " bank" << bank_idx
               << " row" << row << " at cycle " << now);

    if (observer_) {
        CmdEvent ev;
        ev.channel = id_;
        ev.cmd = cmd;
        ev.rank = rank_idx;
        ev.bank = bank_idx;
        ev.row = row;
        ev.cycle = now;
        ev.tid = tid;
        observer_->onCommand(ev);
    }
    ++generation_;

    RankState &r = ranks_[rank_idx];

    switch (cmd) {
      case DramCmd::Activate: {
        BankState &b = bankAt(rank_idx, bank_idx);
        const unsigned si = subarrayOf(row);
        SubarrayState &s = b.subs[si];
        s.open = true;
        s.row = row;
        s.nextRead = std::max(s.nextRead, now + timing_.tRCD);
        s.nextWrite = std::max(s.nextWrite, now + timing_.tRCD);
        s.nextPrecharge = std::max(s.nextPrecharge, now + timing_.tRAS);
        s.nextActivate = std::max(s.nextActivate, now + timing_.tRC);
        // The freshest activation drives the global bitlines; under
        // MASA a later SA_SEL can hand them back to an older row.
        b.designated = si;
        b.designateReadyAt = now;
        r.nextActivate = std::max(r.nextActivate, now + timing_.tRRD);
        r.actWindow[r.actWindowPtr] = now;
        r.actWindowPtr = (r.actWindowPtr + 1) % 4;
        if (r.actWindowFill < 4)
            ++r.actWindowFill;
        statActs.inc();
        return 0;
      }
      case DramCmd::Precharge: {
        SubarrayState &s = bankAt(rank_idx, bank_idx).subs[subarrayOf(row)];
        s.open = false;
        // A PRE issued during a deferred write recovery (SALP-2/MASA)
        // completes internally only after it; wrRecoveryAt stays 0
        // in the other modes.
        Cycle done = std::max(now, s.wrRecoveryAt);
        s.nextActivate = std::max(s.nextActivate, done + timing_.tRP);
        statPrecharges.inc();
        return 0;
      }
      case DramCmd::Read:
      case DramCmd::ReadAp: {
        SubarrayState &s = bankAt(rank_idx, bank_idx).subs[subarrayOf(row)];
        Cycle data_start = now + timing_.tCL;
        Cycle data_end = data_start + timing_.tBURST;
        occupyDataBus(rank_idx, false, data_end);
        nextColCmd_ = now + timing_.tCCD;
        s.nextPrecharge = std::max(s.nextPrecharge, now + timing_.tRTP);
        if (cmd == DramCmd::ReadAp) {
            s.open = false;
            s.nextActivate = std::max(
                s.nextActivate, now + timing_.tRTP + timing_.tRP);
            statPrecharges.inc();
        }
        statReads.inc();
        return data_end;
      }
      case DramCmd::Write:
      case DramCmd::WriteAp: {
        SubarrayState &s = bankAt(rank_idx, bank_idx).subs[subarrayOf(row)];
        Cycle data_start = now + timing_.tCWL;
        Cycle data_end = data_start + timing_.tBURST;
        occupyDataBus(rank_idx, true, data_end);
        nextColCmd_ = now + timing_.tCCD;
        if (salp_ == SalpMode::Salp2 || salp_ == SalpMode::Masa) {
            // SALP-2's second row-address latch (MASA has it too):
            // the PRE may issue during write recovery and completes
            // internally after it.
            s.nextPrecharge = std::max(s.nextPrecharge, data_end);
            s.wrRecoveryAt = std::max(s.wrRecoveryAt,
                                      data_end + timing_.tWR);
        } else {
            // Without the second row-address latch the PRE itself
            // must wait out the write recovery.
            s.nextPrecharge = std::max(s.nextPrecharge,
                                       data_end + timing_.tWR);
        }
        r.nextRead = std::max(r.nextRead, data_end + timing_.tWTR);
        if (cmd == DramCmd::WriteAp) {
            s.open = false;
            s.nextActivate = std::max(
                s.nextActivate, data_end + timing_.tWR + timing_.tRP);
            statPrecharges.inc();
        }
        statWrites.inc();
        return data_end;
      }
      case DramCmd::SaSel: {
        BankState &b = bankAt(rank_idx, bank_idx);
        b.designated = subarrayOf(row);
        b.designateReadyAt = now + timing_.tSA;
        statSaSels.inc();
        return 0;
      }
      case DramCmd::Refresh: {
        for (unsigned b = 0; b < banksPerRank_; ++b)
            for (SubarrayState &s : bankAt(rank_idx, b).subs)
                s.nextActivate = std::max(s.nextActivate,
                                          now + timing_.tRFC);
        r.refreshDoneAt = now + timing_.tRFC;
        statRefreshes.inc();
        return 0;
      }
      case DramCmd::RefreshBank: {
        BankState &b = bankAt(rank_idx, bank_idx);
        b.refreshUntil = now + timing_.tRFCpb;
        occupyBank(b, b.refreshUntil);
        statRefreshesPb.inc();
        return 0;
      }
    }
    DBP_PANIC("unreachable DramCmd");
}

void
DramChannel::blockBank(unsigned rank_idx, unsigned bank_idx, Cycle now,
                       Cycle busy)
{
    DBP_ASSERT(rank_idx < ranks_.size(), "rank out of range");
    DBP_ASSERT(bank_idx < banksPerRank_, "bank out of range");
    ++generation_;
    occupyBank(bankAt(rank_idx, bank_idx), now + busy);
}

void
DramChannel::occupyBank(BankState &b, Cycle until)
{
    for (SubarrayState &s : b.subs) {
        s.nextActivate = std::max(s.nextActivate, until);
        s.nextPrecharge = std::max(s.nextPrecharge, until);
        s.nextRead = std::max(s.nextRead, until);
        s.nextWrite = std::max(s.nextWrite, until);
    }
}

} // namespace dbpsim
