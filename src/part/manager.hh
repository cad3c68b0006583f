/**
 * @file
 * The PartitionManager connects a PartitionPolicy to the machine: it
 * pushes color sets into the OS allocator, migrates nonconforming
 * pages when a new partition is adopted, and charges the migration's
 * DRAM traffic to the involved banks (each migrated page costs one
 * page worth of read bursts at the source bank and write bursts at
 * the destination bank).
 */

#ifndef DBPSIM_PART_MANAGER_HH
#define DBPSIM_PART_MANAGER_HH

#include <memory>
#include <vector>

#include "common/stats.hh"
#include "mem/controller.hh"
#include "os/os_memory.hh"
#include "part/policy.hh"

namespace dbpsim {

/** How adopted partitions treat already-allocated pages. */
enum class MigrationMode
{
    None,      ///< only future allocations follow the new partition.
    Lazy,      ///< migrate-on-touch, rate limited; cost charged.
    Eager,     ///< migrate now; DRAM cost charged to the banks.
    EagerFree, ///< migrate now at zero cost (idealized; ablations).
};

/** Parse "none" / "lazy" / "eager" / "free"; fatal() otherwise. */
MigrationMode migrationModeByName(const std::string &name);

/**
 * Manager configuration.
 */
struct PartitionManagerParams
{
    MigrationMode migration = MigrationMode::Lazy;

    /**
     * Global page-migration budget per profiling interval
     * (0 = unlimited). The copy engine works in the background: pages
     * left nonconforming by the budget are migrated in later
     * intervals. The budget bounds how long any single bank can be
     * occupied by copy traffic within one interval.
     */
    std::uint64_t maxMigratePages = 128;
};

/**
 * The manager.
 */
class PartitionManager
{
  public:
    /**
     * @param policy Decision logic (owned).
     * @param os OS memory model (enforcement point; not owned).
     * @param controllers One per channel, channel-indexed (not owned).
     * @param map Shared address map.
     */
    PartitionManager(std::unique_ptr<PartitionPolicy> policy,
                     OsMemory &os,
                     std::vector<MemoryController *> controllers,
                     const AddressMap &map,
                     PartitionManagerParams params = {});

    /** Apply the policy's initial assignment (call before running). */
    void start();

    /** Interval boundary: hand profiles to the policy, apply changes. */
    void onInterval(const std::vector<ThreadMemProfile> &profiles,
                    Cycle mem_now);

    /**
     * Charge lazily performed page moves (drained from the OS by the
     * system each memory cycle) to the involved banks.
     */
    void applyLazyMoves(
        const std::vector<std::pair<unsigned, unsigned>> &moves,
        Cycle mem_now);

    /** @name Counters. */
    /// @{
    StatScalar statRepartitions;  ///< adopted partition changes.
    StatScalar statPagesMigrated; ///< pages physically moved.
    /// @}

  private:
    /** Push @p assignment into the OS. */
    void apply(const PartitionAssignment &assignment);

    /** One background-migration step within the global budget. */
    void migrateStep(Cycle mem_now);

    /** Occupy the source and destination bank of every (source color,
     *  destination color) page move for its copy time. */
    void chargeMoves(
        const std::vector<std::pair<unsigned, unsigned>> &moves,
        Cycle mem_now);

    std::unique_ptr<PartitionPolicy> policy_;
    OsMemory &os_;
    std::vector<MemoryController *> controllers_;
    const AddressMap &map_;
    PartitionManagerParams params_;

    Cycle pageMoveCost_; ///< bus cycles per page per side.
};

} // namespace dbpsim

#endif // DBPSIM_PART_MANAGER_HH
