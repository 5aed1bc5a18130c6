#include "core/ttf_race.hh"

#include "rng/distributions.hh"
#include "simd/kernels.hh"
#include "util/logging.hh"

namespace retsim {
namespace core {

namespace {

/** Scratch for the no-scratch runTtfRace entry; per-thread so
 *  stripe clones never share. */
RaceRowScratch &
threadScratch()
{
    thread_local RaceRowScratch scratch;
    return scratch;
}

/** Grow @p v to at least @p n entries (never shrinks, so a run of
 *  same-width pixels resizes once). */
template <typename T>
T *
atLeast(std::vector<T> &v, std::size_t n)
{
    if (v.size() < n)
        v.resize(n);
    return v.data();
}

/**
 * One firing set's float-time race.  Ties have measure zero, so the
 * draw count is fixed — one uniform per firing label, in label order
 * — and the TTFs are drawn by one bulk fill converted by the
 * dispatched -log(u)/lambda vecmath kernel, then reduced by the
 * dispatched argmin kernel (first strict minimum, the same rule as a
 * scalar scan).
 */
RaceOutcome
floatTimeRace(const double *rates, const std::uint32_t *labels,
              std::size_t n, rng::Rng &gen, RaceRowScratch &scratch)
{
    double *t = atLeast(scratch.t, n);
    rng::fillExponentials(gen, {rates, n}, {t, n});
    RaceOutcome out;
    out.contenders = static_cast<unsigned>(n);
    out.winner = static_cast<int>(labels[simd::kernels().argmin(t, n)]);
    return out;
}

/**
 * One firing set's binned race: fill its uniforms, draw + quantize +
 * reduce them in one fused expDrawBin call, resolve a bin tie per
 * cfg.tieBreak and map the winner back to its label.  A random
 * tie-break draws one gen.nextBounded(tied) AFTER the TTF uniforms
 * and walks the bins to that tied index.
 */
RaceOutcome
binnedTimeRace(const double *rates, const std::uint32_t *labels,
               std::size_t n, const RsuConfig &cfg, rng::Rng &gen,
               RaceRowScratch &scratch)
{
    double *u = atLeast(scratch.t, n);
    double *bins = atLeast(scratch.bins, n);
    gen.fillUniformOpenLow({u, n});
    const simd::BinRaceResult br = simd::kernels().expDrawBin(
        u, rates, n, static_cast<double>(cfg.tMaxBins()),
        cfg.truncationPolicy == TruncationPolicy::InfiniteTtf, bins);
    RaceOutcome out;
    if (br.contenders == 0)
        return out;
    out.contenders = br.contenders;
    out.winningBin = static_cast<unsigned>(br.bestBin);
    out.tie = br.tied > 1;
    std::size_t win =
        cfg.tieBreak == TieBreak::Last ? br.last : br.first;
    if (out.tie && cfg.tieBreak == TieBreak::Random) {
        // One uniform choice over the tied set (each tied label
        // equally likely); j == 0 keeps the first tied index,
        // otherwise walk to the (j+1)-th index in the minimum bin.
        std::uint64_t j = gen.nextBounded(br.tied);
        for (std::size_t i = win + 1; j != 0 && i < n; ++i) {
            if (bins[i] == br.bestBin && --j == 0)
                win = i;
        }
    }
    out.winner = static_cast<int>(labels[win]);
    return out;
}

} // namespace

RaceOutcome
raceFiringSet(const double *rates, const std::uint32_t *labels,
              std::size_t n, const RsuConfig &cfg, rng::Rng &gen,
              RaceRowScratch &scratch)
{
    if (n == 0)
        return {}; // every label cut off: no contender
    if (cfg.timeQuant == TimeQuant::Binned)
        return binnedTimeRace(rates, labels, n, cfg, gen, scratch);
    return floatTimeRace(rates, labels, n, gen, scratch);
}

RaceOutcome
runTtfRace(std::span<const double> rates, const RsuConfig &cfg,
           rng::Rng &gen, RaceRowScratch &scratch)
{
    RETSIM_ASSERT(!rates.empty(), "race needs at least one label");
    // One branchless pass: each rate is stored at the running count,
    // which only advances past positive rates.
    double *firing_rates = atLeast(scratch.rates, rates.size());
    std::uint32_t *labels = atLeast(scratch.index, rates.size());
    std::size_t n = 0;
    for (std::size_t k = 0; k < rates.size(); ++k) {
        firing_rates[n] = rates[k];
        labels[n] = static_cast<std::uint32_t>(k);
        n += rates[k] > 0.0 ? 1u : 0u;
    }
    return raceFiringSet(firing_rates, labels, n, cfg, gen, scratch);
}

RaceOutcome
runTtfRace(std::span<const double> rates, const RsuConfig &cfg,
           rng::Rng &gen)
{
    return runTtfRace(rates, cfg, gen, threadScratch());
}

} // namespace core
} // namespace retsim
