#include "part/manager.hh"

#include <map>

#include "common/log.hh"

namespace dbpsim {

MigrationMode
migrationModeByName(const std::string &name)
{
    if (name == "none")
        return MigrationMode::None;
    if (name == "lazy")
        return MigrationMode::Lazy;
    if (name == "eager")
        return MigrationMode::Eager;
    if (name == "free")
        return MigrationMode::EagerFree;
    fatal("unknown migration mode '", name,
          "' (expected none|lazy|eager|free)");
}

PartitionManager::PartitionManager(
    std::unique_ptr<PartitionPolicy> policy, OsMemory &os,
    std::vector<MemoryController *> controllers, const AddressMap &map,
    PartitionManagerParams params)
    : policy_(std::move(policy)), os_(os),
      controllers_(std::move(controllers)), map_(map), params_(params)
{
    DBP_ASSERT(policy_ != nullptr, "manager needs a policy");
    DBP_ASSERT(controllers_.size() == map_.geometry().channels,
               "need one controller per channel");

    // One page = pageBytes/lineBytes bursts of tBURST each, read at
    // the source and written at the destination.
    const auto &geom = map_.geometry();
    Cycle burst = controllers_.empty()
        ? 4
        : controllers_[0]->channel().timing().tBURST;
    pageMoveCost_ = (geom.pageBytes / geom.lineBytes) * burst;
}

void
PartitionManager::start()
{
    apply(policy_->initialAssignment());
}

void
PartitionManager::onInterval(const std::vector<ThreadMemProfile> &profiles,
                             Cycle mem_now)
{
    auto next = policy_->onInterval(profiles);
    if (next) {
        statRepartitions.inc();
        apply(*next);
    }
    // The background copy engine runs every interval, continuing any
    // migration the per-interval budget could not finish earlier.
    migrateStep(mem_now);
}

void
PartitionManager::apply(const PartitionAssignment &assignment)
{
    DBP_ASSERT(assignment.size() == os_.numThreads(),
               "assignment size != thread count");
    for (unsigned t = 0; t < assignment.size(); ++t) {
        auto tid = static_cast<ThreadId>(t);
        os_.setColorSet(tid, assignment[t]);
        os_.setLazyMigration(
            tid, params_.migration == MigrationMode::Lazy &&
                     policy_->shouldMigrate(t));
    }
}

void
PartitionManager::applyLazyMoves(
    const std::vector<std::pair<unsigned, unsigned>> &moves,
    Cycle mem_now)
{
    statPagesMigrated.inc(moves.size());
    chargeMoves(moves, mem_now);
}

void
PartitionManager::migrateStep(Cycle mem_now)
{
    if (params_.migration == MigrationMode::None ||
        params_.migration == MigrationMode::Lazy)
        return;

    // Budget shared across threads: round-robin so no thread hogs the
    // copy engine.
    std::uint64_t budget = params_.maxMigratePages;
    bool unlimited = budget == 0;
    std::vector<std::pair<unsigned, unsigned>> moves;
    for (unsigned t = 0; t < os_.numThreads(); ++t) {
        if (!unlimited && budget == 0)
            break;
        if (!policy_->shouldMigrate(t))
            continue;
        std::uint64_t share = unlimited
            ? 0
            : std::max<std::uint64_t>(1,
                  budget / (os_.numThreads() - t));
        MigrationResult moved =
            os_.migrate(static_cast<ThreadId>(t), share);
        if (!unlimited)
            budget -= std::min(budget, moved.pages);
        statPagesMigrated.inc(moved.pages);
        if (params_.migration == MigrationMode::EagerFree)
            continue;
        moves.insert(moves.end(), moved.moves.begin(), moved.moves.end());
    }
    chargeMoves(moves, mem_now);
}

void
PartitionManager::chargeMoves(
    const std::vector<std::pair<unsigned, unsigned>> &moves, Cycle mem_now)
{
    // Each page is read at its source bank and written at its
    // destination; every bank is charged once, in color order.
    std::map<unsigned, Cycle> bank_busy;
    for (const auto &[src, dst] : moves) {
        bank_busy[src] += pageMoveCost_;
        bank_busy[dst] += pageMoveCost_;
    }
    for (const auto &[color, busy] : bank_busy) {
        auto loc = map_.colorLocation(color);
        DBP_ASSERT(loc.channel < controllers_.size(),
                   "color channel out of range");
        controllers_[loc.channel]->applyMigrationCost(loc.rank, loc.bank,
                                                      mem_now, busy);
    }
}

} // namespace dbpsim
