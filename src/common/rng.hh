/**
 * @file
 * Deterministic pseudo-random number generation for the simulator.
 *
 * All stochastic choices in cnsim (random distance-replacement victims,
 * synthetic workload access streams, perturbation of memory timing for
 * multithreaded-variability runs) draw from explicitly seeded Rng
 * instances so every experiment is exactly reproducible.
 *
 * The generator is PCG32 (O'Neill, 2014): tiny state, excellent
 * statistical quality, and much faster than std::mt19937.
 */

#ifndef CNSIM_COMMON_RNG_HH
#define CNSIM_COMMON_RNG_HH

#include <cstdint>

namespace cnsim
{

/** A small, fast, deterministic PCG32 random number generator. */
class Rng
{
  public:
    /**
     * Construct with a seed and an optional stream selector. The seed
     * has no default: every Rng must be seeded from the run
     * configuration, so no choice falls back to a baked-in stream.
     */
    explicit Rng(std::uint64_t seed,
                 std::uint64_t stream = 0xda3e39cb94b95bdbULL)
    {
        state = 0;
        inc = (stream << 1) | 1u;
        next();
        state += seed;
        next();
    }

    /** @return the next raw 32-bit value. */
    std::uint32_t
    next()
    {
        std::uint64_t old = state;
        state = old * 6364136223846793005ULL + inc;
        std::uint32_t xorshifted =
            static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
        std::uint32_t rot = static_cast<std::uint32_t>(old >> 59u);
        return (xorshifted >> rot) | (xorshifted << ((-rot) & 31u));
    }

    /** @return a uniform integer in [0, bound), bound > 0, unbiased. */
    std::uint32_t
    below(std::uint32_t bound)
    {
        // Lemire's nearly-divisionless bounded generation.
        std::uint64_t m =
            static_cast<std::uint64_t>(next()) * static_cast<std::uint64_t>(bound);
        std::uint32_t l = static_cast<std::uint32_t>(m);
        if (l < bound) {
            std::uint32_t t = -bound % bound;
            while (l < t) {
                m = static_cast<std::uint64_t>(next()) *
                    static_cast<std::uint64_t>(bound);
                l = static_cast<std::uint32_t>(m);
            }
        }
        return static_cast<std::uint32_t>(m >> 32);
    }

    /** @return a uniform integer in the inclusive range [lo, hi]. */
    std::uint32_t
    range(std::uint32_t lo, std::uint32_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    /** @return a uniform double in [0, 1). */
    double
    uniform()
    {
        return next() * (1.0 / 4294967296.0);
    }

    /** @return true with probability @p p. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

    /**
     * Sample an approximate Zipf-like rank in [0, n).
     *
     * Realizes the discretized power law 1/(rank+1)^theta via a shared
     * O(1) alias table (common/zipf.hh); theta = 0 degenerates to
     * uniform, theta around 0.6-0.9 matches common workload skew. One
     * raw RNG value is consumed per draw, like the historical
     * inverse-CDF implementation this replaced. Hot generators should
     * hold the ZipfTable directly to skip the per-call cache lookup.
     */
    std::uint32_t zipf(std::uint32_t n, double theta);

    /** Raw generator state, for checkpoint save. */
    std::uint64_t stateWord() const { return state; }

    /** Raw stream selector, for checkpoint save. */
    std::uint64_t incWord() const { return inc; }

    /** Overwrite the generator state (checkpoint restore only). */
    void
    restoreState(std::uint64_t state_word, std::uint64_t inc_word)
    {
        state = state_word;
        inc = inc_word;
    }

  private:
    std::uint64_t state;
    std::uint64_t inc;
};

} // namespace cnsim

#endif // CNSIM_COMMON_RNG_HH
