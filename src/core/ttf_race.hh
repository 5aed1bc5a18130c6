/**
 * @file
 * The first-to-fire time-to-fluorescence race (Sec. II-C, III-C.3).
 *
 * Each label's RET circuit samples an exponential TTF with its decay
 * rate; the label with the shortest measured TTF wins.  In hardware
 * the measurement is quantized to 2^Time_bits bins and truncated at
 * the window end, so distinct continuous TTFs can tie (same bin) or
 * vanish (beyond window) — the two effects Fig. 7 and Fig. 8 study.
 * This kernel is exactly the last two RSU pipeline stages (sampling
 * and selection) and is reused by the functional sampler, the Fig. 7
 * bench and the cycle-level pipeline model.
 */

#ifndef RETSIM_CORE_TTF_RACE_HH
#define RETSIM_CORE_TTF_RACE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "core/rsu_config.hh"
#include "rng/rng.hh"

namespace retsim {
namespace core {

struct RaceOutcome
{
    int winner = -1;        ///< winning label, or -1 if nothing fired
    unsigned winningBin = 0; ///< 1-based bin of the winner (binned mode)
    unsigned contenders = 0; ///< labels that fired within the window
    bool tie = false;       ///< winner shared its bin with another label
};

/** Caller-owned scratch buffers for the race kernels (kept across
 *  calls so the hot path never allocates).  They only grow. */
struct RaceRowScratch
{
    std::vector<double> rates; ///< runTtfRace: compacted firing rates
    std::vector<std::uint32_t> index; ///< runTtfRace: their labels
    std::vector<double> t;     ///< uniforms; converted to TTFs in place
                               ///< (float mode) or consumed raw by the
                               ///< fused expDrawBin kernel (binned mode)
    std::vector<double> bins;  ///< per-label quantized bins (binned mode)
};

/**
 * Race one pixel's firing set: the @p n labels that fire, their
 * positive rates in label order in @p rates and their label indices
 * in @p labels (what the simd firingRates kernel writes straight from
 * the energies).  n == 0 is a pixel with no contender: winner -1, and
 * nothing is drawn.
 *
 * Binned mode fills one uniform per firing label, draws + quantizes +
 * reduces them in one fused expDrawBin call (a lone contender takes
 * its one-draw early-out), truncates beyond tMaxBins(), resolves a
 * bin tie with cfg.tieBreak and maps the winner back through
 * @p labels.  Float mode compares the continuous TTFs (ties have
 * measure zero), which realizes exact first-to-fire probabilities
 * P(i) = rate_i / sum(rate).
 *
 * Draw layout (the reproducibility contract): the pixel's firing
 * labels consume one uniform each, in label order, bulk-filled and
 * converted by the dispatched -log(u)/lambda vecmath kernel; a random
 * tie-break (if the final minimum bin holds several labels) consumes
 * exactly one bounded draw AFTER the pixel's TTF uniforms.  Identical
 * for every SIMD backend.
 */
RaceOutcome raceFiringSet(const double *rates,
                          const std::uint32_t *labels, std::size_t n,
                          const RsuConfig &cfg, rng::Rng &gen,
                          RaceRowScratch &scratch);

/**
 * The same race over per-label absolute decay rates (per time bin):
 * rate <= 0 means the label is cut off and never fires.  Compacts the
 * firing labels (rate > 0) into @p scratch and races them through
 * raceFiringSet(), so outcome and RNG consumption equal the literal
 * draw's.  For callers that hold a whole rate vector.
 */
RaceOutcome runTtfRace(std::span<const double> rates,
                       const RsuConfig &cfg, rng::Rng &gen,
                       RaceRowScratch &scratch);

/** runTtfRace() over a per-thread scratch. */
RaceOutcome runTtfRace(std::span<const double> rates,
                       const RsuConfig &cfg, rng::Rng &gen);

} // namespace core
} // namespace retsim

#endif // RETSIM_CORE_TTF_RACE_HH
