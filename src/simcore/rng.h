/**
 * @file
 * Deterministic pseudo-random number generator for workload synthesis.
 *
 * A small, fast xoshiro256** generator. We deliberately avoid
 * std::mt19937 so that generated traces are identical across standard
 * library implementations, keeping every experiment reproducible.
 */

#ifndef GRIT_SIMCORE_RNG_H_
#define GRIT_SIMCORE_RNG_H_

#include <cstdint>

namespace grit::sim {

/**
 * The splitmix64 finalizer: the repo's one stateless 64-bit mixer
 * (chaos decisions, run fingerprints, bit-flip positions, backoff
 * jitter).
 */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/** xoshiro256** by Blackman & Vigna (public domain reference algorithm). */
class Rng
{
  public:
    /** Construct from a 64-bit seed, expanded via splitmix64. */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [0, bound) using Lemire reduction. @pre bound > 0 */
    std::uint64_t below(std::uint64_t bound);

    /** Uniform integer in [lo, hi]. @pre lo <= hi */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double uniform();

    /** Bernoulli trial with probability @p p of returning true. */
    bool chance(double p) { return uniform() < p; }

  private:
    std::uint64_t s_[4];
};

}  // namespace grit::sim

#endif  // GRIT_SIMCORE_RNG_H_
