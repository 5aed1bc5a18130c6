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
 * stream derivation, the stripe-to-row mapping and stripe-count rule,
 * the per-executor row arena, the batched color-phase row update, and
 * the StripeExecutor that runs a range of stripes — all of them in
 * the single-process solver, one rank's in the sharded one.  The
 * stripe clones come from the run scaffold (solver_run.hh).  A
 * one-shard sharded run is the single-process striped run over the
 * same effectiveStripes() stripes.
 *
 * Nothing in this header is public API; it is included by the two
 * solver translation units (and their tests) only.
 */

#ifndef RETSIM_MRF_CHECKERBOARD_DETAIL_HH
#define RETSIM_MRF_CHECKERBOARD_DETAIL_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "img/image.hh"
#include "mrf/checkpoint.hh"
#include "mrf/energy_cache.hh"
#include "mrf/gibbs.hh"
#include "mrf/problem.hh"
#include "mrf/sampler.hh"
#include "mrf/solver_run.hh"
#include "mrf/solver_telemetry.hh"
#include "rng/rng.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

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

/** Stripe count a chromatic run uses for @p height rows: the
 *  configured count, or min(height, 16) when unset, clamped so no
 *  stripe is empty. */
inline int
effectiveStripes(const SolverConfig &config, int height)
{
    return std::min(config.stripes > 0 ? config.stripes
                                       : std::min(height, 16),
                    height);
}

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
 * return what it counted.  Same-color pixels share no edges, so
 * gathering the whole row's conditionals before any write is exactly
 * what the scalar pixel loop computed.
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
        n = cs->cache->phasePixels(y, color);
        const int recomputed =
            cs->cache->refreshRow(problem, labels, y, color);
        c.cacheRecomputed = static_cast<std::uint64_t>(recomputed);
        c.cacheHits = static_cast<std::uint64_t>(n - recomputed);
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
        c.cacheInvalidations = cs->cache->markRowFlips(
            y, color, flips, cs->rowLo, cs->rowHi, cs->deferred);
    c.pixelUpdates = static_cast<std::uint64_t>(n);
    return c;
}

/**
 * Runs stripes [k0, k1) of an S-stripe color phase.  Each stripe has
 * its own row arena, tally (StripeCounters) and deferred dirty marks;
 * the executor also owns the energy-plane cache over the stripes'
 * rows [lo, hi) and a pool of SolverConfig::threads executors, capped
 * at its stripe count.  A stripe writes only its own tally, and
 * takeCounters() sums them at the sweep join.
 * CheckerboardGibbsSolver runs one over [0, S) (its serial chain, one
 * slot over every row: see runRows); each shard rank runs one over
 * its own stripes.
 */
class StripeExecutor
{
  public:
    /** @p clones: the sampler clones of stripes [k0, k1), or none
     *  when only runRows() is called. */
    StripeExecutor(const SolverConfig &config, const MrfProblem &problem,
                   img::LabelMap &labels,
                   std::span<const std::unique_ptr<LabelSampler>> clones,
                   int stripes, int k0, int k1)
        : config_(config), problem_(problem), labels_(labels),
          clones_(clones), stripes_(stripes), k0_(k0),
          lo_(stripeRowStart(k0, problem.height(), stripes)),
          hi_(stripeRowStart(k1, problem.height(), stripes))
    {
        const std::size_t n = static_cast<std::size_t>(k1 - k0);
        const int m = problem.numLabels();
        // Per-run state: fresh all-dirty planes plus a shadow-label
        // sync at entry, so resume replay stays byte-identical to the
        // uninterrupted run.  Planes cover rows [lo, hi) only (a
        // rank's own); the shadow labels stay full-grid for the edge
        // rows' reads.
        if (n > 0 && keepsEnergyCache(config, problem)) {
            cache_ = std::make_unique<EnergyPlaneCache>(
                problem.width(), problem.height(), m, /*phases=*/2, lo_,
                hi_);
            cache_->syncShadow(labels);
        }
        arenas_.assign(n, RowArena(problem.width(), m));
        counters_.assign(n, StripeCounters{});
        deferred_.assign(n, {});
        // parallelFor's caller participates, so a pool of threads-1
        // workers yields exactly `threads` concurrent executors.
        int threads = config.threads == 0
                          ? static_cast<int>(
                                util::ThreadPool::global().numThreads())
                          : config.threads;
        threads = std::min(threads, k1 - k0);
        if (threads > 1)
            pool_ = std::make_unique<util::ThreadPool>(
                static_cast<std::size_t>(threads - 1));
    }

    /** Sweep rows [y0, y1) of one color phase on slot @p i with
     *  @p sampler and @p gen: a stripe, or the serial chain (slot 0,
     *  the caller's sampler and the solver's stream, every row). */
    void
    runRows(std::size_t i, LabelSampler &sampler, rng::Rng &gen, int y0,
            int y1, int color, double temperature)
    {
        StripeCounters &c = counters_[i];
        CacheSlot slot{cache_.get(), y0, y1, &deferred_[i]};
        CacheSlot *cs = cache_ ? &slot : nullptr;
        for (int y = y0; y < y1; ++y)
            c += updateRow(problem_, sampler, labels_, y, color,
                           temperature, arenas_[i], gen, cs);
    }

    /** Stripe @p k of the phase, on its own (seed, sweep, color,
     *  stripe) stream and sampler clone. */
    void
    runStripe(int sweep, int color, int k, double temperature)
    {
        rng::Xoshiro256 gen(
            stripeStreamSeed(config_.seed, sweep, color, k));
        const std::size_t i = static_cast<std::size_t>(k - k0_);
        runRows(i, *clones_[i], gen,
                stripeRowStart(k, problem_.height(), stripes_),
                stripeRowStart(k + 1, problem_.height(), stripes_), color,
                temperature);
    }

    /** Stripes [ka, kb) of the phase, across the pool when there is
     *  one.  Any stripe order and any thread interleaving give the
     *  same bytes: each stripe has its own stream and clone, and
     *  every neighbor it reads is a frozen other-color pixel. */
    void
    runStripes(int sweep, int color, int ka, int kb, double temperature)
    {
        if (pool_ && kb - ka > 1)
            pool_->parallelFor(static_cast<std::size_t>(kb - ka),
                               [&](std::size_t j) {
                                   runStripe(sweep, color,
                                             ka + static_cast<int>(j),
                                             temperature);
                               });
        else
            for (int k = ka; k < kb; ++k)
                runStripe(sweep, color, k, temperature);
    }

    /**
     * Color-phase join: land the stripes' deferred dirty marks into
     * rows [lo, hi), before the next phase reads them, each counted
     * in the tally of the stripe that deferred it.  Marks into
     * another rank's rows are dropped uncounted; the owning rank
     * re-derives each from its ghost-row diff (one mark per changed
     * ghost pixel), so the invalidation total equals a single
     * process's.
     */
    void
    applyOwnDeferred()
    {
        if (!cache_)
            return;
        for (std::size_t i = 0; i < deferred_.size(); ++i) {
            std::erase_if(deferred_[i], [&](std::uint64_t p) {
                const int y = static_cast<int>(p & 0xffffffffu);
                return y < lo_ || y >= hi_;
            });
            counters_[i].cacheInvalidations +=
                cache_->applyDeferred(deferred_[i]);
        }
    }

    /** Sum and reset the stripes' tallies (sweep join). */
    StripeCounters
    takeCounters()
    {
        StripeCounters tot;
        for (StripeCounters &c : counters_) {
            tot += c;
            c = StripeCounters{};
        }
        return tot;
    }

    SamplerStats
    cloneStatsSum() const
    {
        SamplerStats s;
        for (const std::unique_ptr<LabelSampler> &clone : clones_)
            s += clone->stats();
        return s;
    }

    std::span<const std::unique_ptr<LabelSampler>>
    clones() const
    {
        return clones_;
    }

    EnergyPlaneCache *cache() const { return cache_.get(); }

  private:
    const SolverConfig &config_;
    const MrfProblem &problem_;
    img::LabelMap &labels_;
    std::span<const std::unique_ptr<LabelSampler>> clones_;
    int stripes_;
    int k0_;
    int lo_, hi_; ///< rows of stripes [k0, k1)
    std::unique_ptr<EnergyPlaneCache> cache_;
    std::vector<RowArena> arenas_;
    std::vector<StripeCounters> counters_;
    /** Per stripe: dirty marks for rows outside the stripe, which
     *  belong to another executor during the phase. */
    std::vector<std::vector<std::uint64_t>> deferred_;
    std::unique_ptr<util::ThreadPool> pool_;
};

} // namespace detail
} // namespace mrf
} // namespace retsim

#endif // RETSIM_MRF_CHECKERBOARD_DETAIL_HH
