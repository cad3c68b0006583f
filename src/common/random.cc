#include "common/random.hh"

#include <cmath>

#include "common/log.hh"

namespace dbpsim {

namespace {

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    // Expand the seed through SplitMix64 as the xoshiro authors
    // recommend; guarantees a non-zero state.
    std::uint64_t x = seed;
    for (auto &s : s_)
        s = splitmix64(x);
}

std::uint64_t
Rng::next64()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

std::uint64_t
Rng::nextBelow(std::uint64_t bound)
{
    DBP_ASSERT(bound > 0, "nextBelow(0)");
    // Debiased multiply-shift (Lemire). Bias is negligible for the
    // bounds used in this simulator, but reject the tail anyway.
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
        std::uint64_t r = next64();
        // Use 128-bit multiply to map r into [0, bound).
        unsigned __int128 m = static_cast<unsigned __int128>(r) * bound;
        auto lo = static_cast<std::uint64_t>(m);
        if (lo >= threshold)
            return static_cast<std::uint64_t>(m >> 64);
    }
}

double
Rng::nextDouble()
{
    // 53 high-quality bits -> [0,1).
    return static_cast<double>(next64() >> 11) * 0x1.0p-53;
}

bool
Rng::nextBool(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return nextDouble() < p;
}

std::uint64_t
Rng::nextGeometric(double p)
{
    if (p >= 1.0)
        return 0;
    DBP_ASSERT(p > 0.0, "nextGeometric: p must be in (0,1]");
    // Inverse-transform sampling.
    double u = nextDouble();
    // Guard against log(0).
    if (u <= 0.0)
        u = 0x1.0p-53;
    return static_cast<std::uint64_t>(
        std::floor(std::log(u) / std::log1p(-p)));
}

Rng
Rng::split()
{
    return Rng(next64());
}

} // namespace dbpsim
