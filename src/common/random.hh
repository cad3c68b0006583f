/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic component of the simulator (synthetic trace
 * generators, TCM's insertion shuffle, allocator tie-breaking) draws
 * from an explicitly seeded Rng so that simulations are exactly
 * reproducible. SplitMix64 is used for seeding and xoshiro256** for the
 * stream; both are tiny, fast, and well studied.
 */

#ifndef DBPSIM_COMMON_RANDOM_HH
#define DBPSIM_COMMON_RANDOM_HH

#include <cstdint>

namespace dbpsim {

/**
 * A deterministic, seedable PRNG (xoshiro256**).
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed; any seed (including 0) is fine. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t next64();

    /** Uniform integer in [0, bound) ; bound must be > 0. */
    std::uint64_t nextBelow(std::uint64_t bound);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli draw with probability @p p of true. */
    bool nextBool(double p);

    /**
     * Geometric draw: number of failures before the first success with
     * success probability @p p (mean (1-p)/p). Returns 0 when p >= 1.
     */
    std::uint64_t nextGeometric(double p);

    /** Derive an independent child generator (for per-thread streams). */
    Rng split();

  private:
    std::uint64_t s_[4];
};

} // namespace dbpsim

#endif // DBPSIM_COMMON_RANDOM_HH
