#include "reference.hh"

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

namespace hostbench {

namespace {

volatile std::uint64_t sink;

std::uint64_t
xorshift(std::uint64_t &x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

/** Trace records behind a virtual call, as TraceSource delivers them. */
struct Source
{
    virtual ~Source() = default;
    virtual std::uint32_t next() = 0;
};

struct RandomSource : Source
{
    std::uint64_t x;
    explicit RandomSource(std::uint64_t seed) : x(seed) {}
    std::uint32_t
    next() override
    {
        return static_cast<std::uint32_t>(xorshift(x) >> 16);
    }
};

/**
 * A miniature of the simulator: eight 4-wide cores retire from
 * 128-entry ROB rings fed through virtual calls, and every 16th
 * record is a load served by an FR-FCFS queue over 16 banks. Returns
 * a digest of the work so the compiler keeps all of it.
 */
std::uint64_t
miniSim(std::uint32_t cycles)
{
    constexpr unsigned kCores = 8, kRob = 128, kWidth = 4, kBanks = 16,
                       kQueue = 64;
    struct Req
    {
        std::uint32_t slot, bank, row, arrival;
    };
    std::vector<std::unique_ptr<Source>> src;
    for (unsigned c = 0; c < kCores; ++c)
        src.push_back(std::make_unique<RandomSource>(
            0x9E3779B97F4A7C15ULL * (c + 1)));
    std::vector<std::uint32_t> ready(kCores * kRob, 0);
    std::vector<unsigned> head(kCores, 0), count(kCores, 0);
    std::uint32_t open_row[kBanks] = {}, busy_until[kBanks] = {};
    std::vector<Req> queue;
    queue.reserve(kQueue);
    std::deque<std::pair<std::uint32_t, std::uint32_t>> returning;
    std::uint64_t retired = 0, latency = 0;

    for (std::uint32_t now = 0; now < cycles; ++now) {
        for (unsigned c = 0; c < kCores; ++c) {
            std::uint32_t *rob = &ready[c * kRob];
            for (unsigned k = 0;
                 k < kWidth && count[c] > 0 && rob[head[c]] <= now; ++k) {
                head[c] = (head[c] + 1) % kRob;
                --count[c];
                ++retired;
            }
            for (unsigned k = 0; k < kWidth && count[c] < kRob; ++k) {
                std::uint32_t r = src[c]->next();
                unsigned slot = (head[c] + count[c]) % kRob;
                rob[slot] = now + 1;
                if ((r & 15) == 0) {
                    if (queue.size() == kQueue)
                        break;
                    rob[slot] = ~0u;
                    std::uint32_t bank = (r >> 4) % kBanks;
                    std::uint32_t row = (r >> 8) & 7 ? open_row[bank]
                                                     : (r >> 12) & 1023;
                    queue.push_back({c * kRob + slot, bank, row, now});
                }
                ++count[c];
            }
        }

        // Every fourth cycle is a controller cycle.
        if (now % 4 == 0) {
            std::size_t pick = queue.size();
            for (std::size_t i = 0; i < queue.size(); ++i) {
                const Req &q = queue[i];
                if (busy_until[q.bank] > now)
                    continue;
                if (open_row[q.bank] == q.row) {
                    pick = i;
                    break;
                }
                if (pick == queue.size())
                    pick = i;
            }
            if (pick < queue.size()) {
                Req q = queue[pick];
                bool hit = open_row[q.bank] == q.row;
                busy_until[q.bank] = now + (hit ? 16u : 88u);
                open_row[q.bank] = q.row;
                returning.emplace_back(q.slot, now + (hit ? 60u : 132u));
                latency += now - q.arrival;
                queue.erase(queue.begin() +
                            static_cast<std::ptrdiff_t>(pick));
            }
        }
        while (!returning.empty() && returning.front().second <= now) {
            ready[returning.front().first] = now;
            returning.pop_front();
        }
    }
    return retired * 1315423911ULL + latency;
}

} // namespace

double
referenceSeconds()
{
    // Read at run time, so the compiler cannot fold the run away.
    static volatile std::uint32_t cycles = kReferenceCycles;
    auto t0 = std::chrono::steady_clock::now();
    sink = miniSim(cycles);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

} // namespace hostbench
