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

/**
 * One pixel's float-time race.  Ties have measure zero, so the draw
 * count is fixed — one uniform per firing label, in label order —
 * and the pixel's TTFs are drawn by one bulk fill converted by the
 * dispatched -log(u)/lambda vecmath kernel, then reduced by the
 * dispatched argmin kernel (first strict minimum, the same rule as a
 * scalar scan).  @p all_fire_hint skips the firing scan when the
 * caller guarantees every rate is positive.
 */
RaceOutcome
floatTimeRace(std::span<const double> rates, rng::Rng &gen,
          RaceRowScratch &scratch, bool all_fire_hint)
{
    std::span<const double> firing = rates;
    if (!all_fire_hint) {
        // One branchless pass both counts the firing labels and
        // compacts their rates (each rate is stored at the running
        // count, which only advances past positive rates).  With
        // nothing cut off the rates are already compact.
        scratch.rates.resize(rates.size());
        std::size_t n = 0;
        for (std::size_t k = 0; k < rates.size(); ++k) {
            scratch.rates[n] = rates[k];
            n += rates[k] > 0.0 ? 1u : 0u;
        }
        if (n != rates.size())
            firing = {scratch.rates.data(), n};
    }
    RaceOutcome out;
    if (firing.empty())
        return out;
    scratch.t.resize(firing.size());
    rng::fillExponentials(gen, firing, scratch.t);
    std::size_t j =
        simd::kernels().argmin(scratch.t.data(), firing.size());
    out.contenders = static_cast<unsigned>(firing.size());
    if (firing.size() == rates.size()) {
        out.winner = static_cast<int>(j);
        return out;
    }
    // Map the j-th firing label back to its label index.
    for (std::size_t i = 0; i < rates.size(); ++i) {
        if (rates[i] > 0.0 && j-- == 0) {
            out.winner = static_cast<int>(i);
            break;
        }
    }
    return out;
}

/**
 * One pixel's binned race, in a single pass over the labels: compact
 * the firing rates together with their label indices, fill their
 * uniforms, draw + quantize + reduce them in one fused expDrawBin
 * call, resolve a bin tie per cfg.tieBreak and look the winner's
 * label up.  A random tie-break draws one gen.nextBounded(tied) AFTER
 * the pixel's TTF uniforms and walks the compacted bins to that tied
 * index.
 */
RaceOutcome
binnedTimeRace(std::span<const double> rates, const RsuConfig &cfg,
           rng::Rng &gen, RaceRowScratch &scratch)
{
    // Sized to the label count, not the firing count, so a row of
    // same-width pixels never resizes.
    const std::size_t m = rates.size();
    scratch.rates.resize(m);
    scratch.index.resize(m);
    scratch.t.resize(m);
    scratch.bins.resize(m);
    double *firing_rates = scratch.rates.data();
    std::uint32_t *index = scratch.index.data();
    std::size_t firing = 0;
    for (std::size_t k = 0; k < m; ++k) {
        firing_rates[firing] = rates[k];
        index[firing] = static_cast<std::uint32_t>(k);
        firing += rates[k] > 0.0 ? 1u : 0u;
    }
    RaceOutcome out;
    if (firing == 0)
        return out;
    gen.fillUniformOpenLow({scratch.t.data(), firing});
    const double *bins = scratch.bins.data();
    const simd::BinRaceResult br = simd::kernels().expDrawBin(
        scratch.t.data(), firing_rates, firing,
        static_cast<double>(cfg.tMaxBins()),
        cfg.truncationPolicy == TruncationPolicy::InfiniteTtf,
        scratch.bins.data());
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
        for (std::size_t i = win + 1; j != 0 && i < firing; ++i) {
            if (bins[i] == br.bestBin && --j == 0)
                win = i;
        }
    }
    out.winner = static_cast<int>(index[win]);
    return out;
}

} // namespace

RaceOutcome
runTtfRace(std::span<const double> rates, const RsuConfig &cfg,
           rng::Rng &gen)
{
    return runTtfRace(rates, cfg, gen, threadScratch());
}

RaceOutcome
runTtfRace(std::span<const double> rates, const RsuConfig &cfg,
           rng::Rng &gen, RaceRowScratch &scratch, bool allFireHint)
{
    RETSIM_ASSERT(!rates.empty(), "race needs at least one label");
    if (cfg.timeQuant == TimeQuant::Binned)
        return binnedTimeRace(rates, cfg, gen, scratch);
    return floatTimeRace(rates, gen, scratch, allFireHint);
}

} // namespace core
} // namespace retsim
