#include "mem/controller.hh"

#include <algorithm>

#include "common/log.hh"

namespace dbpsim {

namespace {

/** Does a request in @p queue other than @p except want @p row of
 *  (@p rank, @p bank)? */
bool
wantsRow(const std::vector<MemRequest> &queue, unsigned rank,
         unsigned bank, std::uint64_t row,
         const MemRequest *except = nullptr)
{
    for (const MemRequest &req : queue)
        if (&req != except && req.coord.rank == rank &&
            req.coord.bank == bank && req.coord.row == row)
            return true;
    return false;
}

} // namespace

MemoryController::MemoryController(unsigned channel_id,
                                   const AddressMap &map,
                                   const DramTiming &timing,
                                   ControllerParams params,
                                   Scheduler *scheduler,
                                   ThreadProfiler *profiler)
    : map_(map), params_(params),
      channel_(map.geometry(), timing, channel_id, params.salp),
      refresh_(channel_, this, params.refresh), scheduler_(scheduler),
      profiler_(profiler),
      subarrays_(static_cast<unsigned>(channel_.bank(0, 0).subs.size()))
{
    DBP_ASSERT(scheduler_ != nullptr, "controller needs a scheduler");
    DBP_ASSERT(params_.numThreads > 0, "controller needs >= 1 thread");
    DBP_ASSERT(params_.writeLoWatermark < params_.writeHiWatermark,
               "write watermarks inverted");
    DBP_ASSERT(params_.writeHiWatermark <= params_.writeQueueSize,
               "write hi watermark exceeds queue size");
    threadStats_.resize(params_.numThreads);
    latencyHist_.assign(params_.numThreads, StatHistogram(128, 8.0));
    const std::size_t banks_total =
        std::size_t{channel_.numRanks()} * channel_.numBanks();
    lastColumnUse_.assign(banks_total, 0);
    bankDemand_.assign(banks_total, 0);
    rankDemand_.assign(channel_.numRanks(), 0);
    scan_.resize(banks_total * subarrays_);
    preSlots_.reserve(banks_total);
    readQ_.reserve(params_.readQueueSize);
    writeQ_.reserve(params_.writeQueueSize);
    scheduler_->attachQueueView(this);
}

unsigned
MemoryController::colorOf(const DramCoord &coord) const
{
    return map_.colorOf(coord);
}

const ControllerThreadStats &
MemoryController::threadStats(ThreadId tid) const
{
    DBP_ASSERT(tid >= 0 &&
               static_cast<unsigned>(tid) < params_.numThreads,
               "bad thread id " << tid);
    return threadStats_[static_cast<unsigned>(tid)];
}

const StatHistogram &
MemoryController::latencyHistogram(ThreadId tid) const
{
    DBP_ASSERT(tid >= 0 &&
               static_cast<unsigned>(tid) < params_.numThreads,
               "bad thread id " << tid);
    return latencyHist_[static_cast<unsigned>(tid)];
}

bool
MemoryController::enqueueRead(Addr paddr, ThreadId tid, MemClient *client,
                              std::uint64_t tag, Cycle now)
{
    wakeAt_ = 0;
    // Write-to-read forwarding: a queued store to the same line
    // supplies the data without touching DRAM.
    for (const auto &w : writeQ_) {
        if (w.paddr == paddr) {
            forwarded_.push_back(Inflight{now + params_.forwardLatency,
                                          client, tag, tid, 0, 0, now});
            statWriteForwards.inc();
            return true;
        }
    }

    if (readQ_.size() >= params_.readQueueSize) {
        statReadQueueFull.inc();
        return false;
    }

    MemRequest req;
    req.paddr = paddr;
    req.coord = map_.decode(paddr);
    req.write = false;
    req.tid = tid;
    req.id = nextReqId_++;
    req.enqueueCycle = now;
    req.client = client;
    req.tag = tag;

    if (profiler_ && tid >= 0) {
        unsigned color = colorOf(req.coord);
        profiler_->onRequest(tid, color, req.coord.row);
        profiler_->onOutstandingInc(tid, color, req.coord.row);
    }
    scheduler_->onEnqueue(req);
    readQ_.push_back(req);
    ++pushes_;
    ++bankDemand_[bankSlot(req.coord.rank, req.coord.bank)];
    ++rankDemand_[req.coord.rank];
    statReadsEnqueued.inc();
    return true;
}

bool
MemoryController::enqueueWrite(Addr paddr, ThreadId tid, Cycle now)
{
    wakeAt_ = 0;
    // Coalesce with an already-queued store to the same line.
    for (auto &w : writeQ_) {
        if (w.paddr == paddr) {
            statWriteCoalesced.inc();
            return true;
        }
    }

    if (writeQ_.size() >= params_.writeQueueSize) {
        statWriteQueueFull.inc();
        return false;
    }

    MemRequest req;
    req.paddr = paddr;
    req.coord = map_.decode(paddr);
    req.write = true;
    req.tid = tid;
    req.id = nextReqId_++;
    req.enqueueCycle = now;

    if (profiler_ && tid >= 0) {
        unsigned color = colorOf(req.coord);
        profiler_->onRequest(tid, color, req.coord.row);
        profiler_->onOutstandingInc(tid, color, req.coord.row, false);
    }
    writeQ_.push_back(req);
    ++pushes_;
    ++bankDemand_[bankSlot(req.coord.rank, req.coord.bank)];
    ++rankDemand_[req.coord.rank];
    statWritesEnqueued.inc();
    return true;
}

void
MemoryController::forEachPendingRead(
    const std::function<void(MemRequest &)> &fn)
{
    for (auto &req : readQ_)
        fn(req);
}

void
MemoryController::applyMigrationCost(unsigned rank, unsigned bank,
                                     Cycle now, Cycle busy_cycles)
{
    wakeAt_ = 0;
    channel_.blockBank(rank, bank, now, busy_cycles);
}

void
MemoryController::completeReads(Cycle now)
{
    auto deliver = [&](std::vector<Inflight> &list, bool from_dram) {
        for (std::size_t i = 0; i < list.size();) {
            if (list[i].doneAt <= now) {
                Inflight f = list[i];
                list[i] = list.back();
                list.pop_back();

                if (f.tid >= 0 && static_cast<unsigned>(f.tid) <
                        params_.numThreads) {
                    auto &ts = threadStats_[static_cast<unsigned>(f.tid)];
                    ++ts.readsCompleted;
                    ts.readLatencySum += f.doneAt - f.enqueueCycle;
                    if (from_dram)
                        latencyHist_[static_cast<unsigned>(f.tid)]
                            .sample(static_cast<double>(
                                f.doneAt - f.enqueueCycle));
                }
                if (from_dram && profiler_ && f.tid >= 0)
                    profiler_->onOutstandingDec(f.tid, f.color, f.row);
                if (f.client)
                    f.client->readComplete(f.tag);
            } else {
                ++i;
            }
        }
    };
    deliver(forwarded_, false);
    deliver(inflight_, true);
}

bool
MemoryController::hasBankDemand(unsigned rank, unsigned bank) const
{
    return bankDemand_[bankSlot(rank, bank)] != 0;
}

bool
MemoryController::hasRankDemand(unsigned rank) const
{
    return rankDemand_[rank] != 0;
}

bool
MemoryController::nextDrainMode() const
{
    bool mode = writeMode_;
    if (mode) {
        if (writeQ_.size() <= params_.writeLoWatermark)
            mode = false;
    } else {
        if (writeQ_.size() >= params_.writeHiWatermark)
            mode = true;
        else if (readQ_.empty() && inflight_.empty() &&
                 writeQ_.size() >= params_.idleWriteThresh)
            mode = true;
    }
    return mode && !writeQ_.empty();
}

MemoryController::ScanGroup &
MemoryController::scanGroup(unsigned rank, unsigned bank, unsigned si)
{
    ScanGroup &g = scan_[bankSlot(rank, bank) * subarrays_ + si];
    if (g.stamp != scans_) {
        const SubarrayState &s = channel_.bank(rank, bank).subs[si];
        g.stamp = scans_;
        g.open = s.open;
        g.openRow = s.row;
        g.hitKnown = false;
        g.missKnown = false;
        g.bestHit = nullptr;
        g.bestPre = nullptr;
    }
    return g;
}

bool
MemoryController::issueFromQueue(std::vector<MemRequest> &queue,
                                 bool writes, Cycle now)
{
    if (queue.empty())
        return false;
    if (idle_.holds(now, channel_.generation(), pushes_) &&
        writes == idleWrites_)
        return false;

    SchedContext ctx{channel_, now};
    ++scans_;
    preSlots_.clear();

    // One pass: among requests whose next command is legal right now,
    // pick the highest-priority one. A request's command and readiness
    // are its (bank, subarray) group's, derived once per scan. The
    // others give the horizon: the cycle their group's command turns
    // legal, or the next cycle for a slot held back by a refresh mask
    // or a legal precharge held back by the precharge guard, since
    // both holds can lift without a command.
    const MemRequest *best = nullptr;
    DramCmd best_cmd = DramCmd::Activate;
    std::uint64_t best_row = 0;
    bool best_boost = false;
    Cycle horizon = kNeverCycle;
    auto consider = [&](const MemRequest &req, DramCmd cmd,
                        std::uint64_t row) {
        // Refresh-aware arbitration: requests on a bank whose refresh
        // debt is nearly exhausted drain first, so the bank goes idle
        // before the refresh turns urgent. drainBoost() is always
        // false outside aware mode, leaving the order untouched.
        const bool boost =
            refresh_.drainBoost(req.coord.rank, req.coord.bank);
        if (!best || (boost && !best_boost) ||
            (boost == best_boost &&
             scheduler_->higherPriority(req, *best, ctx))) {
            best = &req;
            best_cmd = cmd;
            best_row = row;
            best_boost = boost;
        }
    };
    const bool masa = channel_.salpMode() == SalpMode::Masa;
    for (const MemRequest &req : queue) {
        const unsigned rank = req.coord.rank;
        const unsigned bank = req.coord.bank;
        if (refresh_.blocks(rank, bank)) {
            horizon = std::min(horizon, now + 1);
            continue;
        }
        const unsigned si = channel_.subarrayOf(req.coord.row);
        ScanGroup &guard = scanGroup(rank, bank, 0);
        ScanGroup &g = si == 0 ? guard : scanGroup(rank, bank, si);
        const bool hit = g.open && g.openRow == req.coord.row;
        if (hit) {
            // A row hit. The slot's best one guards its precharges: a
            // request may close a row only if it outranks every
            // queued hit of the bank.
            if (!guard.bestHit ||
                scheduler_->higherPriority(req, *guard.bestHit, ctx))
                guard.bestHit = &req;
            if (!g.hitKnown) {
                // MASA: a row open in a subarray that is not linked
                // to the global bitlines is relinked, not
                // precharged. (Outside MASA an open subarray is
                // always the designated one.)
                g.hitCmd = channel_.bank(rank, bank).designated != si
                    ? DramCmd::SaSel
                    : writes ? DramCmd::Write : DramCmd::Read;
                g.hitReady = channel_.readyAt(g.hitCmd, rank, bank,
                                              req.coord.row);
                g.hitKnown = true;
            }
        } else if (!g.missKnown) {
            // The row in the way: under MASA only the subarray's own
            // row, since other subarrays' open rows never conflict;
            // otherwise the bank's one open row, whichever subarray
            // holds it.
            const BankState &bs = channel_.bank(rank, bank);
            const SubarrayState *occupied = masa
                ? (g.open ? &bs.subs[si] : nullptr)
                : bs.visible();
            g.missCmd = occupied ? DramCmd::Precharge : DramCmd::Activate;
            g.missRow = occupied ? occupied->row : req.coord.row;
            g.missReady =
                channel_.readyAt(g.missCmd, rank, bank, g.missRow);
            g.missKnown = true;
        }
        const DramCmd cmd = hit ? g.hitCmd : g.missCmd;
        const Cycle ready = hit ? g.hitReady : g.missReady;
        if (ready > now) {
            horizon = std::min(horizon, ready);
            continue;
        }
        if (cmd == DramCmd::Precharge) {
            // Judged against the guard once every hit is known.
            if (!guard.bestPre)
                preSlots_.push_back(bankSlot(rank, bank));
            if (!guard.bestPre ||
                scheduler_->higherPriority(req, *guard.bestPre, ctx)) {
                guard.bestPre = &req;
                guard.bestPreRow = g.missRow;
            }
            continue;
        }
        // The ACT, SA_SEL or column command names the request's row.
        consider(req, cmd, req.coord.row);
    }
    // A slot's best precharge competes only if it outranks the slot's
    // best hit. Every order ends in olderFirst, a strict total order,
    // so if the best one does not, no precharge of the slot does.
    for (std::size_t slot : preSlots_) {
        const ScanGroup &guard = scan_[slot * subarrays_];
        if (guard.bestHit &&
            !scheduler_->higherPriority(*guard.bestPre, *guard.bestHit,
                                        ctx)) {
            // Would destroy a higher-priority row hit.
            horizon = std::min(horizon, now + 1);
            continue;
        }
        consider(*guard.bestPre, DramCmd::Precharge, guard.bestPreRow);
    }
    if (!best) {
        idle_ = quietKey(horizon);
        idleWrites_ = writes;
        return false;
    }

    const std::size_t best_idx =
        static_cast<std::size_t>(best - queue.data());
    MemRequest &req = queue[best_idx];
    bool row_hit_service = false;
    switch (best_cmd) {
      case DramCmd::Activate:
        channel_.issue(best_cmd, req.coord.rank, req.coord.bank,
                       best_row, now, req.tid);
        req.triggeredAct = true;
        return true;
      case DramCmd::Precharge:
        channel_.issue(best_cmd, req.coord.rank, req.coord.bank,
                       best_row, now, req.tid);
        req.triggeredAct = true; // a conflict service, not a hit.
        return true;
      case DramCmd::SaSel:
        // Relink only; the row stays open, so the later column
        // command still counts as a row-hit service.
        channel_.issue(best_cmd, req.coord.rank, req.coord.bank,
                       best_row, now, req.tid);
        return true;
      case DramCmd::Read:
      case DramCmd::Write: {
        // Closed page: auto-precharge unless another queued request
        // still wants this row. RD and RDA (WR and WRA) are legal at
        // the same cycle.
        DramCmd cmd = best_cmd;
        if (params_.pagePolicy == PagePolicy::Closed &&
            !wantsRow(queue, req.coord.rank, req.coord.bank,
                      req.coord.row, &req))
            cmd = writes ? DramCmd::WriteAp : DramCmd::ReadAp;
        Cycle done = channel_.issue(cmd, req.coord.rank, req.coord.bank,
                                    best_row, now, req.tid);
        lastColumnUse_[bankSlot(req.coord.rank, req.coord.bank)] = now;
        row_hit_service = !req.triggeredAct;
        if (req.tid >= 0 &&
            static_cast<unsigned>(req.tid) < params_.numThreads) {
            auto &ts = threadStats_[static_cast<unsigned>(req.tid)];
            if (row_hit_service)
                ++ts.rowHits;
            else
                ++ts.rowMisses;
            if (writes)
                ++ts.writes;
            else
                ++ts.reads;
        }
        if (writes) {
            if (profiler_ && req.tid >= 0)
                profiler_->onOutstandingDec(req.tid, colorOf(req.coord),
                                            req.coord.row, false);
        } else {
            scheduler_->onDequeue(req);
            MemRequest completed = req; // copy before erase.
            inflight_.push_back(Inflight{done, completed.client,
                                         completed.tag, completed.tid,
                                         colorOf(completed.coord),
                                         completed.coord.row,
                                         completed.enqueueCycle});
            scheduler_->onComplete(completed, done);
        }
        unsigned &bank_demand =
            bankDemand_[bankSlot(req.coord.rank, req.coord.bank)];
        DBP_ASSERT(bank_demand > 0 && rankDemand_[req.coord.rank] > 0,
                   "demand count underflow");
        --bank_demand;
        --rankDemand_[req.coord.rank];
        queue.erase(queue.begin() +
                    static_cast<std::ptrdiff_t>(best_idx));
        return true;
      }
      case DramCmd::ReadAp:
      case DramCmd::WriteAp:
      case DramCmd::Refresh:
      case DramCmd::RefreshBank:
        DBP_PANIC("a scan never picks " << dramCmdName(best_cmd));
    }
    return false;
}

bool
MemoryController::closeIdleRows(Cycle now)
{
    for (unsigned r = 0; r < channel_.numRanks(); ++r) {
        for (unsigned b = 0; b < channel_.numBanks(); ++b) {
            const BankState &bs = channel_.bank(r, b);
            if (!bs.open())
                continue;
            const std::uint64_t row = bs.row();
            Cycle last = lastColumnUse_[bankSlot(r, b)];
            if (now < last + params_.rowIdleTimeout)
                continue;
            // Keep the row open while anyone still wants it.
            if (wantsRow(readQ_, r, b, row) ||
                wantsRow(writeQ_, r, b, row))
                continue;
            // The PRE's row selects the subarray it closes.
            if (channel_.canIssue(DramCmd::Precharge, r, b, row, now)) {
                channel_.issue(DramCmd::Precharge, r, b, row, now);
                statIdleRowCloses.inc();
                return true;
            }
        }
    }
    return false;
}

void
MemoryController::tickAwake(Cycle now)
{
    completeReads(now);

    // The engine's masks from its last full tick stay valid while its
    // quiet horizon holds.
    if (!refreshQuiet_.holds(now, channel_.generation(), pushes_)) {
        if (refresh_.tick(now))
            return; // command bus consumed by refresh management.
        refreshQuiet_ = quietKey(refresh_.quietUntil());
    }

    updateDrainMode();

    bool issued;
    if (writeMode_)
        issued = issueFromQueue(writeQ_, true, now);
    else
        issued = issueFromQueue(readQ_, false, now);
    if (issued)
        return;

    // OpenAdaptive: spend an otherwise idle command slot closing rows
    // nobody wants anymore, hiding tRP from the next conflict.
    if (params_.pagePolicy == PagePolicy::OpenAdaptive)
        closeIdleRows(now);
    else
        sleepIfQuiet();
}

void
MemoryController::sleepIfQuiet()
{
    // A drain mode that would flip again (write mode cleared at the
    // low watermark, set again by the idle-write rule) keeps the
    // controller awake.
    if (nextDrainMode() != writeMode_)
        return;
    // Both keys hold: this tick either recorded them or was skipped
    // by them, and nothing has issued since.
    Cycle wake = refreshQuiet_.until;
    if (!(writeMode_ ? writeQ_ : readQ_).empty())
        wake = std::min(wake, idle_.until);
    for (const Inflight &f : forwarded_)
        wake = std::min(wake, f.doneAt);
    for (const Inflight &f : inflight_)
        wake = std::min(wake, f.doneAt);
    wakeAt_ = wake;
}

} // namespace dbpsim
