#include "part/part_mcp.hh"

#include <algorithm>

#include "common/log.hh"

namespace dbpsim {

McpPolicy::McpPolicy(unsigned num_threads, unsigned channels,
                     unsigned ranks, unsigned banks, McpParams params,
                     unsigned subarrays)
    : numThreads_(num_threads), channels_(channels),
      layout_(channels, ranks, banks, subarrays), params_(params)
{
    DBP_ASSERT(num_threads > 0, "mcp needs >= 1 thread");
}

PartitionAssignment
McpPolicy::initialAssignment()
{
    current_.assign(numThreads_, {});
    return PartitionAssignment(numThreads_, layout_.all());
}

std::vector<std::vector<unsigned>>
McpPolicy::channelAssignment(
    const std::vector<ThreadMemProfile> &profiles) const
{
    DBP_ASSERT(profiles.size() == numThreads_,
               "mcp: profile vector size mismatch");

    enum Group { Low = 0, HiRbl = 1, LoRbl = 2 };
    std::vector<int> group(numThreads_);
    double demand[3] = {0.0, 0.0, 0.0};
    unsigned members[3] = {0, 0, 0};

    for (unsigned t = 0; t < numThreads_; ++t) {
        const auto &p = profiles[t];
        int g;
        if (p.mpki < params_.lowMpki)
            g = Low;
        else if (p.rowBufferHitRate >= params_.highRbl)
            g = HiRbl;
        else
            g = LoRbl;
        group[t] = g;
        demand[g] += static_cast<double>(p.requests);
        ++members[g];
    }

    // Channel counts per group: proportional to bandwidth demand, at
    // least one channel per non-empty group when that fits.
    std::vector<unsigned> active;
    for (unsigned g = 0; g < 3; ++g)
        if (members[g] > 0)
            active.push_back(g);

    std::vector<std::vector<unsigned>> group_channels(3);
    if (active.size() <= 1 || channels_ == 1) {
        // Nothing to separate: everyone gets every channel.
        std::vector<unsigned> all(channels_);
        for (unsigned c = 0; c < channels_; ++c)
            all[c] = c;
        for (int g = 0; g < 3; ++g)
            group_channels[g] = all;
    } else if (channels_ < active.size()) {
        // Two channels, three groups: separate the two intensive
        // groups (the point of MCP); the low group joins the side
        // with less demand.
        DBP_ASSERT(channels_ == 2 && active.size() == 3,
                   "unexpected channel/group combination");
        group_channels[HiRbl] = {0};
        group_channels[LoRbl] = {1};
        group_channels[Low] =
            demand[HiRbl] <= demand[LoRbl] ? std::vector<unsigned>{0}
                                           : std::vector<unsigned>{1};
    } else {
        // Proportional split with floor 1 (largest remainder).
        double total = demand[0] + demand[1] + demand[2];
        if (total <= 0.0)
            total = 1.0;
        std::vector<unsigned> share(3, 0);
        unsigned used = 0;
        std::vector<double> exact(3, 0.0);
        for (unsigned g : active) {
            exact[g] = channels_ * demand[g] / total;
            share[g] = std::max(1u, static_cast<unsigned>(exact[g]));
            used += share[g];
        }
        while (used > channels_) {
            int victim = -1;
            for (unsigned g : active)
                if (share[g] > 1 &&
                    (victim < 0 || share[g] > share[victim]))
                    victim = static_cast<int>(g);
            DBP_ASSERT(victim >= 0, "mcp: cannot fit groups");
            --share[victim];
            --used;
        }
        roundByLargestRemainder(share, exact, active, channels_);
        unsigned next = 0;
        for (unsigned g : active) {
            for (unsigned i = 0; i < share[g]; ++i)
                group_channels[g].push_back(next++);
        }
    }

    std::vector<std::vector<unsigned>> out(numThreads_);
    for (unsigned t = 0; t < numThreads_; ++t)
        out[t] = group_channels[group[t]];
    return out;
}

bool
McpPolicy::shouldMigrate(unsigned thread) const
{
    if (thread >= lowGroup_.size())
        return true;
    return !lowGroup_[thread];
}

std::optional<PartitionAssignment>
McpPolicy::onInterval(const std::vector<ThreadMemProfile> &profiles)
{
    lowGroup_.assign(numThreads_, false);
    for (unsigned t = 0; t < numThreads_; ++t)
        lowGroup_[t] = profiles[t].mpki < params_.lowMpki;

    auto chans = channelAssignment(profiles);
    if (chans == current_)
        return std::nullopt;
    current_ = chans;

    PartitionAssignment out(numThreads_);
    for (unsigned t = 0; t < numThreads_; ++t) {
        out[t] = layout_.ofChannels(chans[t]);
        std::sort(out[t].begin(), out[t].end());
    }
    return out;
}

} // namespace dbpsim
