#include "part/part_dbp.hh"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "common/config.hh"
#include "common/log.hh"

namespace dbpsim {

DbpPolicy::DbpPolicy(unsigned num_threads, unsigned channels,
                     unsigned ranks, unsigned banks, DbpParams params,
                     unsigned subarrays)
    : numThreads_(num_threads), channels_(channels), ranks_(ranks),
      banks_(banks), subs_(subarrays),
      bankColors_(channels * ranks * banks),
      totalColors_(bankColors_ * subarrays), params_(params),
      gate_(num_threads, params)
{
    DBP_ASSERT(num_threads > 0, "dbp needs >= 1 thread");
    DBP_ASSERT(totalColors_ > 0, "dbp needs >= 1 bank");
    DBP_ASSERT(subarrays > 0, "dbp needs >= 1 subarray per bank");
    if (params_.lightBanksPerThread <= 0.0)
        fatal("dbp: lightBanksPerThread must be > 0");
    if (params_.lightShareCap <= 0.0 || params_.lightShareCap > 1.0)
        fatal("dbp: lightShareCap out of (0,1]");
    spreadOrder_ =
        channelSpreadColorOrder(channels_, ranks_, banks_, subs_);
    spreadPos_.assign(totalColors_, 0);
    for (unsigned pos = 0; pos < totalColors_; ++pos)
        spreadPos_[spreadOrder_[pos]] = pos;
    owned_.resize(numThreads_);
}

void
DbpPolicy::clearOwnership()
{
    for (auto &o : owned_)
        o.clear();
    lightSet_.clear();
}

PartitionAssignment
DbpPolicy::initialAssignment()
{
    // No profile yet: start from the equal partition (what the paper
    // compares against, and a safe default until measurements exist).
    // Counts are in bank units (hysteresis compares against
    // bankShares); ownership is carved in colors, whole banks at a
    // time.
    std::vector<unsigned> counts(numThreads_, 0);
    if (bankColors_ >= numThreads_) {
        unsigned base = bankColors_ / numThreads_;
        unsigned extra = bankColors_ % numThreads_;
        for (unsigned t = 0; t < numThreads_; ++t)
            counts[t] = base + (t < extra ? 1 : 0);
    } else {
        std::fill(counts.begin(), counts.end(), 1u);
    }
    currentCounts_ = counts;
    sharedAll_ = false;

    clearOwnership();
    if (bankColors_ >= numThreads_) {
        // Contiguous slices of the channel-spreading order.
        unsigned pos = 0;
        for (unsigned t = 0; t < numThreads_; ++t)
            for (unsigned i = 0; i < counts[t] * subs_; ++i)
                owned_[t].push_back(spreadOrder_[pos++]);
    } else {
        // Degenerate sharing: threads wrap around the banks.
        for (unsigned t = 0; t < numThreads_; ++t)
            for (unsigned s = 0; s < subs_; ++s)
                owned_[t].push_back(
                    spreadOrder_[(t % bankColors_) * subs_ + s]);
    }

    PartitionAssignment out(numThreads_);
    for (unsigned t = 0; t < numThreads_; ++t)
        out[t] = owned_[t];
    return out;
}

std::vector<unsigned>
dbpBankShares(const DbpParams &params,
              const std::vector<ThreadMemProfile> &profiles,
              const std::vector<unsigned> &members, unsigned banks)
{
    const auto n = static_cast<unsigned>(members.size());
    auto prof = [&](unsigned i) -> const ThreadMemProfile & {
        return profiles[members[i]];
    };

    std::vector<bool> light(n, false);
    unsigned light_count = 0;
    for (unsigned i = 0; i < n; ++i) {
        if (prof(i).mpki < params.lightMpki) {
            light[i] = true;
            ++light_count;
        }
    }

    std::vector<unsigned> shares(n, 0);

    // All threads light: no partitioning pressure — everyone shares
    // the whole machine.
    if (light_count == n) {
        std::fill(shares.begin(), shares.end(), banks);
        return shares;
    }

    unsigned heavy_count = n - light_count;

    // Light group size: proportional to membership, capped.
    unsigned light_banks = 0;
    if (light_count > 0) {
        light_banks = static_cast<unsigned>(std::ceil(
            params.lightBanksPerThread * light_count));
        unsigned cap = std::max(1u, static_cast<unsigned>(
            params.lightShareCap * banks));
        light_banks = std::clamp(light_banks, 1u, cap);
    }
    // Every heavy thread needs at least one bank; shrink the light
    // group if necessary.
    while (light_banks > 1 && banks - light_banks < heavy_count)
        --light_banks;

    unsigned remaining = banks > light_banks ? banks - light_banks : 0;

    if (remaining < heavy_count) {
        // Pathological (more heavy threads than banks): every heavy
        // thread reports one bank; the caller shares them.
        for (unsigned i = 0; i < n; ++i)
            shares[i] = light[i] ? std::max(1u, light_banks) : 1u;
        return shares;
    }

    // Base: the equal split of the heavy banks (remainder to the
    // lowest thread ids, like UBP). Bank utility is strongly concave
    // (fig2), so the equal share is close to throughput-optimal for
    // threads of comparable behaviour; the dynamic win comes from the
    // exceptions below, not from wholesale proportional dealing.
    std::vector<unsigned> base(n, 0);
    {
        unsigned eq = remaining / heavy_count;
        unsigned extra = remaining % heavy_count;
        for (unsigned i = 0; i < n; ++i) {
            if (light[i])
                continue;
            base[i] = eq + (extra > 0 ? 1 : 0);
            if (extra > 0)
                --extra;
        }
    }

    // Donors: streaming threads (intrinsic RBHR >= streamRbhr) run
    // from the row buffer and need only streamBanks banks — measured
    // directly by the alone bank sweeps (fig2: libquantum saturates
    // by two banks). They donate the rest of their equal share.
    std::vector<bool> donor(n, false);
    unsigned surplus = 0;
    if (!params.flatDemand) {
        for (unsigned i = 0; i < n; ++i) {
            if (light[i] || base[i] <= params.streamBanks)
                continue;
            // A donor must both run from the row buffer AND target
            // few rows concurrently; high-RBHR multi-stream apps
            // (bwaves-like) need a bank per stream and must not
            // donate. Row parallelism is partition invariant.
            if (prof(i).rowBufferHitRate >= params.streamRbhr &&
                prof(i).rowParallelism <= params.maxDonorRows) {
                donor[i] = true;
                surplus += base[i] - params.streamBanks;
            }
        }
    }

    // Receivers: the remaining heavy threads, weighted by row-miss
    // intensity MPKI * (1 - RBHR) — the partition-invariant measure
    // of how much bank service each thread's misses demand (measured
    // BLP is censored by the current partition and useless here).
    std::vector<double> weight(n, 0.0);
    double weight_sum = 0.0;
    for (unsigned i = 0; i < n; ++i) {
        if (light[i] || donor[i])
            continue;
        weight[i] = std::max(0.1, prof(i).mpki *
                             (1.0 - prof(i).rowBufferHitRate));
        weight_sum += weight[i];
    }

    std::vector<unsigned> extra_share(n, 0);
    if (surplus > 0 && weight_sum > 0.0) {
        // Largest-remainder proportional split of the surplus.
        std::vector<double> exact(n, 0.0);
        unsigned used = 0;
        for (unsigned i = 0; i < n; ++i) {
            if (light[i] || donor[i] || weight[i] <= 0.0)
                continue;
            exact[i] = surplus * weight[i] / weight_sum;
            extra_share[i] = static_cast<unsigned>(exact[i]);
            used += extra_share[i];
        }
        std::vector<unsigned> order;
        for (unsigned i = 0; i < n; ++i)
            if (!light[i] && !donor[i] && weight[i] > 0.0)
                order.push_back(i);
        std::sort(order.begin(), order.end(),
                  [&](unsigned a, unsigned b) {
                      double fa = exact[a] - std::floor(exact[a]);
                      double fb = exact[b] - std::floor(exact[b]);
                      if (fa != fb)
                          return fa > fb;
                      return a < b;
                  });
        std::size_t oi = 0;
        while (used < surplus && !order.empty()) {
            ++extra_share[order[oi % order.size()]];
            ++used;
            ++oi;
        }
    } else if (surplus > 0) {
        // Everyone heavy is a donor: nothing sensible to transfer.
        surplus = 0;
        std::fill(donor.begin(), donor.end(), false);
    }

    for (unsigned i = 0; i < n; ++i) {
        if (light[i])
            shares[i] = std::max(1u, light_banks);
        else if (donor[i])
            shares[i] = params.streamBanks;
        else
            shares[i] = base[i] + extra_share[i];
    }
    return shares;
}

DbpIntervalGate::DbpIntervalGate(unsigned num_threads,
                                 const DbpParams &params)
    : params_(params), adoptedLight_(num_threads, false),
      warmupLeft_(params.warmupIntervals)
{
}

const std::vector<ThreadMemProfile> *
DbpIntervalGate::admit(const std::vector<ThreadMemProfile> &profiles)
{
    DBP_ASSERT(profiles.size() == adoptedLight_.size(),
               "dbp: profile vector size mismatch");

    // Cold-start guard: the first intervals' profiles are dominated
    // by window fill and first-touch allocation; re-seed the smoother
    // and do not act on them.
    if (warmupLeft_ > 0) {
        --warmupLeft_;
        smoothed_ = profiles;
        return nullptr;
    }

    // Smooth the noisy per-interval estimates so one odd interval
    // cannot reshuffle banks (and trigger a page-migration wave).
    if (smoothed_.empty()) {
        smoothed_ = profiles;
    } else {
        double a = params_.ewmaAlpha;
        for (std::size_t t = 0; t < profiles.size(); ++t) {
            const ThreadMemProfile &s = smoothed_[t];
            ThreadMemProfile next = profiles[t];
            next.mpki = a * s.mpki + (1 - a) * next.mpki;
            next.rowBufferHitRate = a * s.rowBufferHitRate +
                (1 - a) * next.rowBufferHitRate;
            next.rowParallelism = a * s.rowParallelism +
                (1 - a) * next.rowParallelism;
            smoothed_[t] = next;
        }
    }

    // Cooldown: never repartition two adjacent intervals.
    ++sinceRepartition_;
    if (sinceRepartition_ < params_.cooldownIntervals)
        return nullptr;
    return &smoothed_;
}

std::vector<bool>
DbpIntervalGate::lightNow() const
{
    std::vector<bool> light(smoothed_.size());
    for (std::size_t t = 0; t < smoothed_.size(); ++t)
        light[t] = smoothed_[t].mpki < params_.lightMpki;
    return light;
}

void
DbpIntervalGate::adopt()
{
    adoptedLight_ = lightNow();
    ++repartitions_;
    sinceRepartition_ = 0;
}

std::vector<unsigned>
DbpPolicy::bankShares(const std::vector<ThreadMemProfile> &profiles) const
{
    DBP_ASSERT(profiles.size() == numThreads_,
               "dbp: profile vector size mismatch");
    std::vector<unsigned> all(numThreads_);
    std::iota(all.begin(), all.end(), 0u);
    return dbpBankShares(params_, profiles, all, bankColors_);
}

bool
DbpPolicy::shouldMigrate(unsigned thread) const
{
    return !gate_.adoptedLight(thread);
}

std::optional<PartitionAssignment>
DbpPolicy::onInterval(const std::vector<ThreadMemProfile> &profiles)
{
    const std::vector<ThreadMemProfile> *smoothed = gate_.admit(profiles);
    if (!smoothed)
        return std::nullopt;

    std::vector<bool> light = gate_.lightNow();
    std::vector<unsigned> shares = bankShares(*smoothed);

    // Hysteresis: adopt only if some thread's allocation moved enough
    // or its light/heavy classification flipped.
    DBP_ASSERT(currentCounts_.size() == numThreads_,
               "onInterval before initialAssignment");
    unsigned max_delta = 0;
    bool class_change = false;
    for (unsigned t = 0; t < numThreads_; ++t) {
        unsigned delta = shares[t] > currentCounts_[t]
            ? shares[t] - currentCounts_[t]
            : currentCounts_[t] - shares[t];
        max_delta = std::max(max_delta, delta);
        class_change = class_change || light[t] != gate_.adoptedLight(t);
    }
    if (max_delta < params_.hysteresisBanks && !class_change)
        return std::nullopt;

    currentCounts_ = shares;
    gate_.adopt();
    if (envFlag("DBPSIM_DEBUG_DBP")) {
        const std::vector<ThreadMemProfile> &sm = *smoothed;
        std::ostringstream os;
        os << "dbp repartition #" << gate_.repartitions() << ":";
        for (unsigned t = 0; t < numThreads_; ++t)
            os << " t" << t << "=" << shares[t]
               << (light[t] ? "L" : "")
               << "(rbhr=" << sm[t].rowBufferHitRate
               << ",drp=" << sm[t].rowParallelism
               << ",mpki=" << sm[t].mpki << ")";
        inform(os.str());
    }
    // Shares are in banks; ownership is carved in subarray colors, a
    // whole bank's worth at a time.
    for (unsigned &c : shares)
        c *= subs_;
    return buildAssignment(shares, light);
}

PartitionAssignment
DbpPolicy::buildAssignment(const std::vector<unsigned> &counts,
                           const std::vector<bool> &light)
{
    // All-light case: everyone shares every bank; ownership dissolves.
    bool everyone_everything = true;
    for (unsigned t = 0; t < numThreads_; ++t)
        if (counts[t] != totalColors_)
            everyone_everything = false;
    if (everyone_everything) {
        clearOwnership();
        sharedAll_ = true;
        std::vector<unsigned> all(totalColors_);
        for (unsigned c = 0; c < totalColors_; ++c)
            all[c] = c;
        return PartitionAssignment(numThreads_, all);
    }

    unsigned light_banks = 0;
    unsigned heavy_sum = 0;
    for (unsigned t = 0; t < numThreads_; ++t) {
        if (light[t])
            light_banks = counts[t];
        else
            heavy_sum += counts[t];
    }

    // Pathological sharing case (more heavy threads than banks): a
    // stable incremental hand-off cannot represent shared ownership;
    // rebuild fresh with wrap-around sharing.
    if (heavy_sum + light_banks > totalColors_) {
        clearOwnership();
        sharedAll_ = false;
        PartitionAssignment out(numThreads_);
        std::size_t pos = 0;
        std::vector<unsigned> light_set;
        for (unsigned i = 0; i < light_banks; ++i)
            light_set.push_back(
                spreadOrder_[totalColors_ - 1 - i]);
        std::size_t head_span = totalColors_ - light_banks;
        for (unsigned t = 0; t < numThreads_; ++t) {
            if (light[t]) {
                out[t] = light_set;
                continue;
            }
            for (unsigned i = 0; i < counts[t]; ++i)
                out[t].push_back(spreadOrder_[pos++ % head_span]);
        }
        return out;
    }

    // Leaving the shared-all state: nothing is owned; seed ownership
    // with fresh contiguous slices (one-time cost).
    if (sharedAll_) {
        clearOwnership();
        sharedAll_ = false;
    }

    // ---- Incremental hand-off: entities keep what they own; only
    // the delta changes hands, which is what keeps page migration
    // proportional to the *change* in the partition rather than to
    // the machine size.

    // Target per entity: heavy thread t -> counts[t]; threads now
    // light own nothing directly (the light set is a shared entity).
    std::vector<unsigned> free_pool;

    // Release phase.
    for (unsigned t = 0; t < numThreads_; ++t) {
        unsigned target = light[t] ? 0 : counts[t];
        while (owned_[t].size() > target) {
            free_pool.push_back(owned_[t].back());
            owned_[t].pop_back();
        }
    }
    while (lightSet_.size() > light_banks) {
        free_pool.push_back(lightSet_.back());
        lightSet_.pop_back();
    }

    // Any color neither owned nor already released (first incremental
    // call after a reset) also enters the pool.
    {
        std::vector<bool> accounted(totalColors_, false);
        for (const auto &o : owned_)
            for (unsigned c : o)
                accounted[c] = true;
        for (unsigned c : lightSet_)
            accounted[c] = true;
        for (unsigned c : free_pool)
            accounted[c] = true;
        for (unsigned c = 0; c < totalColors_; ++c)
            if (!accounted[c])
                free_pool.push_back(c);
    }

    // Sort the pool along the channel-spreading order so acquisitions
    // spread across channels/ranks.
    std::sort(free_pool.begin(), free_pool.end(),
              [&](unsigned a, unsigned b) {
                  return spreadPos_[a] < spreadPos_[b];
              });

    // Acquire phase: round-robin over needy entities so each gets a
    // spread slice of the pool. The light set acquires from the tail
    // (it historically lives at the end of the spread order).
    std::size_t pool_head = 0;
    std::size_t pool_tail = free_pool.size();
    while (lightSet_.size() < light_banks) {
        DBP_ASSERT(pool_head < pool_tail, "dbp: pool exhausted (light)");
        lightSet_.push_back(free_pool[--pool_tail]);
    }
    bool progress = true;
    while (progress) {
        progress = false;
        for (unsigned t = 0; t < numThreads_; ++t) {
            if (light[t] || owned_[t].size() >= counts[t])
                continue;
            DBP_ASSERT(pool_head < pool_tail,
                       "dbp: pool exhausted (heavy)");
            owned_[t].push_back(free_pool[pool_head++]);
            progress = true;
        }
    }
    DBP_ASSERT(pool_head == pool_tail,
               "dbp: " << (pool_tail - pool_head)
               << " colors left unassigned");

    PartitionAssignment out(numThreads_);
    for (unsigned t = 0; t < numThreads_; ++t)
        out[t] = light[t] ? lightSet_ : owned_[t];
    return out;
}

} // namespace dbpsim
