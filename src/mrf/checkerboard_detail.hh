/**
 * @file
 * Shared internals of the chromatic (checkerboard) Gibbs schedule.
 *
 * CheckerboardGibbsSolver (single process, serial or striped) and
 * shard::ShardedCheckerboardSolver (multi-process tile/halo
 * decomposition) must produce byte-identical results for the same
 * (seed, stripe count) — the per-site determinism contract the CI
 * shard-equivalence leg enforces.  The only way to keep two solvers
 * bit-exact forever is to make them execute the SAME code for every
 * probabilistic step, so everything that touches the RNG streams or
 * the energy planes lives here: the per-(seed, sweep, color, stripe)
 * stream derivation, the stripe-to-row mapping, the per-executor row
 * arena, and the batched color-phase row update.
 *
 * Nothing in this header is public API; it is included by the two
 * solver translation units (and their tests) only.
 */

#ifndef RETSIM_MRF_CHECKERBOARD_DETAIL_HH
#define RETSIM_MRF_CHECKERBOARD_DETAIL_HH

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "img/image.hh"
#include "mrf/energy_cache.hh"
#include "mrf/problem.hh"
#include "mrf/sampler.hh"
#include "rng/rng.hh"

namespace retsim {
namespace mrf {
namespace detail {

/**
 * Seed of the RNG stream that drives one (sweep, color, stripe)
 * phase.  Chained SplitMix64 mixes keep distinct coordinates
 * decorrelated, and the derivation depends only on the solver seed and
 * the stripe decomposition — never on which thread (or which shard
 * process) runs the stripe, which is exactly the partition-
 * independence property the sharded solver relies on.
 */
inline std::uint64_t
stripeStreamSeed(std::uint64_t seed, int sweep, int color, int stripe)
{
    std::uint64_t s =
        rng::streamSeed(seed, static_cast<std::uint64_t>(sweep));
    s = rng::streamSeed(s, static_cast<std::uint64_t>(color));
    return rng::streamSeed(s, static_cast<std::uint64_t>(stripe));
}

/** First row of stripe @p k in the canonical striped decomposition of
 *  @p height rows into @p stripes contiguous stripes.  Stripe k owns
 *  rows [stripeRowStart(k), stripeRowStart(k + 1)). */
inline int
stripeRowStart(int k, int height, int stripes)
{
    return static_cast<int>(static_cast<std::int64_t>(k) * height /
                            stripes);
}

/** Per-stripe trace counters, merged into SolverTrace per sweep. */
struct StripeCounters
{
    std::uint64_t pixelUpdates = 0;
    std::uint64_t labelChanges = 0;
};

/**
 * Caller-owned buffers for one executor's row batches: the energy
 * plane the problem writes, the label vectors the sampler reads and
 * fills, and the row's flip bitset.  Sized once for the widest
 * possible color-phase row.
 */
struct RowArena
{
    std::vector<float> energies;
    std::vector<int> current;
    std::vector<int> chosen;
    std::vector<std::uint64_t> flips; ///< bit i = pixel i flipped

    RowArena(int width, int m)
        : energies(static_cast<std::size_t>((width + 1) / 2) * m),
          current(static_cast<std::size_t>((width + 1) / 2)),
          chosen(static_cast<std::size_t>((width + 1) / 2)),
          flips((static_cast<std::size_t>((width + 1) / 2) + 63) / 64)
    {
    }
};

/**
 * One executor's view of the flip-aware energy-plane cache: the
 * shared cache plus this executor's row-ownership range for the
 * stripe-boundary mark exchange (see energy_cache.hh).  Serial paths
 * own the whole grid and never defer.
 */
struct CacheSlot
{
    EnergyPlaneCache *cache = nullptr;
    int rowLo = 0;
    int rowHi = 0;
    std::vector<std::uint64_t> *deferred = nullptr;
};

/**
 * Update one color-phase row through the batched sampler path and
 * return the per-row counter deltas.  Same-color pixels share no
 * edges, so gathering the whole row's conditionals before any write
 * is exactly what the scalar pixel loop computed.
 *
 * With a CacheSlot the row's conditionals come from the incremental
 * plane (only dirty pixels recomputed, via the shadow-label fused
 * kernel), which is bit-identical to the uncached plane, so the
 * sampler sees the same energies either way.
 */
inline StripeCounters
updateRow(const MrfProblem &problem, LabelSampler &sampler,
          img::LabelMap &labels, int y, int color, double temperature,
          RowArena &arena, rng::Rng &gen, CacheSlot *cs)
{
    StripeCounters c;
    const int m = problem.numLabels();
    const int x0 = (y + color) % 2;
    int n;
    const float *eplane;
    if (cs) {
        n = cs->cache->refreshRow(problem, labels, y, color);
        eplane = cs->cache->plane(y, color);
    } else {
        n = problem.conditionalEnergiesRow(labels, y, x0, 2,
                                           arena.energies);
        eplane = arena.energies.data();
    }
    if (n == 0)
        return c;
    for (int i = 0; i < n; ++i)
        arena.current[static_cast<std::size_t>(i)] =
            labels(x0 + 2 * i, y);

    std::span<const int> current(arena.current.data(),
                                 static_cast<std::size_t>(n));
    std::span<int> chosen(arena.chosen.data(),
                          static_cast<std::size_t>(n));
    std::span<const float> energies(eplane,
                                    static_cast<std::size_t>(n) * m);
    sampler.sampleRow(energies, m, temperature, current, chosen, gen);

    // Write back the row and collect its flips as a bitset; the dirty
    // marks then go in a word at a time (markRowFlips), which marks
    // exactly what one markFlip per flip would.
    std::uint64_t *flips = arena.flips.data();
    const std::size_t flip_words = (static_cast<std::size_t>(n) + 63) / 64;
    if (cs)
        std::fill(flips, flips + flip_words, 0);
    for (int i = 0; i < n; ++i) {
        const int x = x0 + 2 * i;
        const int pick = chosen[static_cast<std::size_t>(i)];
        labels(x, y) = pick;
        if (pick != current[static_cast<std::size_t>(i)]) {
            ++c.labelChanges;
            if (cs) {
                cs->cache->setShadow(x, y, pick);
                flips[i >> 6] |= std::uint64_t{1} << (i & 63);
            }
        }
    }
    if (cs && c.labelChanges)
        cs->cache->markRowFlips(y, color, flips, cs->rowLo, cs->rowHi,
                                cs->deferred);
    c.pixelUpdates = static_cast<std::uint64_t>(n);
    return c;
}

} // namespace detail
} // namespace mrf
} // namespace retsim

#endif // RETSIM_MRF_CHECKERBOARD_DETAIL_HH
