#include "part/part_combined.hh"

#include <map>

#include "common/log.hh"

namespace dbpsim {

CombinedPolicy::CombinedPolicy(unsigned num_threads, unsigned channels,
                               unsigned ranks, unsigned banks,
                               DbpParams dbp, McpParams mcp,
                               unsigned subarrays)
    : numThreads_(num_threads), layout_(channels, ranks, banks, subarrays),
      dbpParams_(dbp),
      mcp_(num_threads, channels, ranks, banks, mcp, subarrays),
      gate_(num_threads, dbp)
{
    DBP_ASSERT(num_threads > 0, "dbp-mcp needs >= 1 thread");
}

PartitionAssignment
CombinedPolicy::initialAssignment()
{
    // Before any profile: the equal bank split over all channels
    // (same safe start as DBP).
    current_ = layout_.equalSplit(numThreads_);
    return current_;
}

std::optional<PartitionAssignment>
CombinedPolicy::onInterval(const std::vector<ThreadMemProfile> &profiles)
{
    const std::vector<ThreadMemProfile> *smoothed = gate_.admit(profiles);
    if (!smoothed)
        return std::nullopt;

    // Channel groups from MCP's classification.
    auto chans = mcp_.channelAssignment(*smoothed);
    std::map<std::vector<unsigned>, std::vector<unsigned>> groups;
    for (unsigned t = 0; t < numThreads_; ++t)
        groups[chans[t]].push_back(t);

    // DBP's bank shares inside each group (MCP can co-locate its
    // low-intensity group with an intensive one). Heavy members take
    // contiguous slices from the head of the group's spread order and
    // light members share its tail, each bank as all its colors.
    const std::vector<bool> light = gate_.lightNow();
    const unsigned subs = layout_.subarrays();
    PartitionAssignment next(numThreads_);
    for (const auto &[channel_list, members] : groups) {
        const std::vector<unsigned> colors = layout_.ofChannels(channel_list);
        const auto banks = static_cast<unsigned>(colors.size()) / subs;
        const std::vector<unsigned> shares =
            dbpBankShares(dbpParams_, *smoothed, members, banks);
        unsigned light_banks = 0;
        unsigned heavy_banks = 0;
        for (std::size_t i = 0; i < members.size(); ++i) {
            if (light[members[i]])
                light_banks = shares[i];
            else
                heavy_banks += shares[i];
        }
        if (light_banks + heavy_banks > banks) {
            // More heavy members than banks: the group shares them.
            for (unsigned t : members)
                next[t] = colors;
            continue;
        }
        auto head = colors.begin();
        for (std::size_t i = 0; i < members.size(); ++i) {
            if (light[members[i]]) {
                next[members[i]].assign(colors.end() - light_banks * subs,
                                        colors.end());
            } else {
                next[members[i]].assign(head, head + shares[i] * subs);
                head += shares[i] * subs;
            }
        }
    }

    if (next == current_)
        return std::nullopt;
    current_ = next;
    gate_.adopt();
    return next;
}

bool
CombinedPolicy::shouldMigrate(unsigned thread) const
{
    return !gate_.adoptedLight(thread);
}

} // namespace dbpsim
