#include "core/core.hh"

#include <algorithm>

#include "common/log.hh"

namespace dbpsim {

TraceCore::TraceCore(ThreadId tid, CoreParams params, TraceSource *source,
                     CoreMemoryInterface *mem)
    : tid_(tid), params_(params), source_(source), mem_(mem)
{
    DBP_ASSERT(source_ != nullptr, "core needs a trace source");
    DBP_ASSERT(mem_ != nullptr, "core needs a memory interface");
    DBP_ASSERT(params_.windowSize > 0, "window size must be >= 1");
    DBP_ASSERT(params_.issueWidth > 0, "issue width must be >= 1");
    DBP_ASSERT(params_.mshrs > 0, "mshr count must be >= 1");
    DBP_ASSERT(params_.storeBufferSize > 0, "store buffer must be >= 1");
    mshrs_.resize(params_.mshrs);
}

void
TraceCore::fetch()
{
    // Keep fetching while the window has room, counted in
    // instructions. One trace record contributes its bubble run plus
    // the memory instruction itself.
    while (windowInstrs_ < params_.windowSize) {
        TraceRecord rec = source_->next();
        if (rec.gap > 0) {
            Entry bubble;
            bubble.kind = Entry::Kind::Bubble;
            bubble.count = rec.gap;
            window_.push_back(bubble);
            windowInstrs_ += rec.gap;
        }
        Entry memop;
        memop.kind = rec.write ? Entry::Kind::Store : Entry::Kind::Load;
        memop.vaddr = rec.vaddr - rec.vaddr % params_.lineBytes;
        window_.push_back(memop);
        windowInstrs_ += 1;
    }
}

bool
TraceCore::tryIssueLoad(std::uint64_t pos)
{
    Addr line = window_[pos - popped_].vaddr;

    // Merge with an outstanding MSHR for the same line.
    for (auto &m : mshrs_) {
        if (m.valid && m.lineAddr == line) {
            m.waiters.push_back(pos);
            statMshrMerges.inc();
            return true;
        }
    }

    if (mshrInUse_ >= params_.mshrs) {
        statMshrStalls.inc();
        return false;
    }

    // Find a free MSHR slot; its index is the completion tag.
    std::size_t slot = mshrs_.size();
    for (std::size_t i = 0; i < mshrs_.size(); ++i) {
        if (!mshrs_[i].valid) {
            slot = i;
            break;
        }
    }
    DBP_ASSERT(slot < mshrs_.size(), "mshrInUse_ / valid mismatch");

    if (!mem_->issueLoad(tid_, line, this, slot))
        return false;

    mshrs_[slot].valid = true;
    mshrs_[slot].lineAddr = line;
    mshrs_[slot].waiters.assign(1, pos);
    ++mshrInUse_;
    statLoads.inc();
    return true;
}

void
TraceCore::issueLoads()
{
    const std::uint64_t end = popped_ + window_.size();
    for (; nextIssue_ < end; ++nextIssue_) {
        if (window_[nextIssue_ - popped_].kind != Entry::Kind::Load)
            continue;
        if (!tryIssueLoad(nextIssue_))
            break; // in-order issue attempts; retry next cycle.
    }
}

void
TraceCore::readComplete(std::uint64_t tag)
{
    DBP_ASSERT(tag < mshrs_.size(), "bad completion tag " << tag);
    Mshr &m = mshrs_[tag];
    DBP_ASSERT(m.valid, "completion for free MSHR " << tag);

    for (std::uint64_t pos : m.waiters) {
        DBP_ASSERT(pos >= popped_ && pos < nextIssue_,
                   "waiter " << pos << " is not an issued entry in the "
                   "window [" << popped_ << ", " << nextIssue_ << ")");
        Entry &entry = window_[pos - popped_];
        DBP_ASSERT(entry.kind == Entry::Kind::Load && !entry.completed,
                   "waiter " << pos << " is not an outstanding load");
        entry.completed = true;
    }
    m.valid = false;
    m.waiters.clear();
    DBP_ASSERT(mshrInUse_ > 0, "mshrInUse_ underflow");
    --mshrInUse_;
    if (asleep_) {
        mem_->onCoreWake(tid_);
        asleep_ = false;
    }
}

void
TraceCore::drainStoreBuffer()
{
    if (storeBuffer_.empty())
        return;
    if (mem_->issueStore(tid_, storeBuffer_.front())) {
        storeBuffer_.pop_front();
        statStores.inc();
    }
}

void
TraceCore::popHead()
{
    window_.pop_front();
    ++popped_;
}

void
TraceCore::retire()
{
    std::uint64_t budget = params_.issueWidth;
    while (budget > 0 && !window_.empty()) {
        Entry &head = window_.front();
        switch (head.kind) {
          case Entry::Kind::Bubble: {
            std::uint64_t take = std::min<std::uint64_t>(budget,
                                                         head.count);
            head.count -= take;
            budget -= take;
            retired_ += take;
            windowInstrs_ -= take;
            if (head.count == 0)
                popHead();
            break;
          }
          case Entry::Kind::Load: {
            if (!head.completed) {
                statHeadStalls.inc();
                return;
            }
            retired_ += 1;
            windowInstrs_ -= 1;
            --budget;
            popHead();
            break;
          }
          case Entry::Kind::Store: {
            if (storeBuffer_.size() >= params_.storeBufferSize) {
                statStoreStalls.inc();
                return;
            }
            storeBuffer_.push_back(head.vaddr);
            retired_ += 1;
            windowInstrs_ -= 1;
            --budget;
            popHead();
            break;
          }
        }
    }
}

void
TraceCore::tick()
{
    if (bubbleRun_ > 0 || asleep_) {
        skipTicks(1);
        return;
    }
    fetch();
    issueLoads();
    retire();
    drainStoreBuffer();

    if (params_.fullTicks || !storeBuffer_.empty() ||
        windowInstrs_ < params_.windowSize)
        return;
    const Entry &head = window_.front();
    const bool all_issued = nextIssue_ == popped_ + window_.size();
    if (head.kind == Entry::Kind::Bubble) {
        // Before each run tick the window holds at least windowSize
        // instructions and the head bubble more than issueWidth.
        const std::uint64_t width = params_.issueWidth;
        if (all_issued)
            bubbleRun_ = std::min(
                (head.count - 1) / width,
                (windowInstrs_ - params_.windowSize) / width + 1);
        return;
    }
    if (head.kind != Entry::Kind::Load || head.completed)
        return;
    // Issue that stopped short of the window's end stopped on a full
    // MSHR file or on a load memory refused. A refused load keeps the
    // core awake: its retry runs the OS translation again and counts
    // a full queue.
    asleepOnMshrs_ = !all_issued && mshrInUse_ >= params_.mshrs;
    asleep_ = all_issued || asleepOnMshrs_;
}

} // namespace dbpsim
