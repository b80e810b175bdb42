/**
 * @file
 * Deterministic pseudo-random number generator.
 *
 * The simulator must be fully reproducible for a fixed seed, so every
 * stochastic component (AEX arrival, measurement jitter, workload key
 * distributions) draws from its own Rng instance seeded from the
 * experiment configuration. The generator is xoshiro256++, which is
 * fast, has a 256-bit state, and passes BigCrush.
 */

#ifndef HC_SUPPORT_RNG_HH
#define HC_SUPPORT_RNG_HH

#include <bit>
#include <cstdint>

#include "support/logging.hh"

namespace hc {

/** xoshiro256++ deterministic PRNG. */
class Rng
{
  public:
    /** Construct from a 64-bit seed, expanded via splitmix64. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** @return the next raw 64-bit value. */
    std::uint64_t next()
    {
        const std::uint64_t result = std::rotl(s_[0] + s_[3], 23) + s_[0];
        const std::uint64_t t = s_[1] << 17;

        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = std::rotl(s_[3], 45);

        return result;
    }

    /**
     * @return a uniform integer in [0, bound); bound must be > 0.
     * Defined here so a constant bound (the per-poll jitter) folds
     * both 64-bit divisions at the call site.
     */
    std::uint64_t nextBelow(std::uint64_t bound)
    {
        hc_assert(bound > 0);
        // Rejection sampling to avoid modulo bias.
        const std::uint64_t threshold = (0 - bound) % bound;
        for (;;) {
            const std::uint64_t r = next();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** @return a uniform integer in [lo, hi] inclusive. */
    std::int64_t nextRange(std::int64_t lo, std::int64_t hi);

    /** @return a uniform double in [0, 1). */
    double nextDouble();

    /** @return true with probability @p p. */
    bool chance(double p);

    /**
     * @return an exponentially distributed value with the given mean.
     * Used for Poisson inter-arrival processes (e.g. OS interrupts).
     */
    double nextExponential(double mean);

    /** @return a normally distributed value (Box-Muller). */
    double nextGaussian(double mean, double stddev);

  private:
    std::uint64_t s_[4];
};

} // namespace hc

#endif // HC_SUPPORT_RNG_HH
