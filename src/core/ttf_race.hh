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
 *  calls so the hot path never allocates). */
struct RaceRowScratch
{
    std::vector<double> rates; ///< compacted rates of firing labels
    std::vector<double> t;     ///< bulk uniforms; converted to TTFs in
                               ///< place (float mode) or consumed raw
                               ///< by the fused expDrawBin kernel
                               ///< (binned mode)
    std::vector<double> bins;  ///< per-label quantized bins (binned mode)
};

/** Elements per ttfBins dispatch in the bulk binned row race.  The
 *  deterministic-draw row path batches the whole plane's draw +
 *  bin-quantize through dispatches of this length — one indirect call
 *  and one vector tail per batch instead of per pixel — while the
 *  three staged buffers (uniforms, rates, bins; 32 KiB each) stay
 *  cache-resident. */
constexpr std::size_t kRaceBatchElements = 4096;

/** Nominal pixels whose draws share one dispatch at @p m labels per
 *  pixel (recorded in the bench JSON as race_batch_pixels). */
constexpr std::size_t
raceBatchPixels(std::size_t m)
{
    return kRaceBatchElements / m > 0 ? kRaceBatchElements / m : 1;
}

/**
 * Run one race over per-label absolute decay rates (per time bin);
 * rate <= 0 means the label is cut off and never fires.
 *
 * Binned mode draws each TTF, truncates beyond tMaxBins() and
 * resolves bin ties with cfg.tieBreak.  Float mode compares the
 * continuous TTFs (ties have measure zero), which realizes exact
 * first-to-fire probabilities P(i) = rate_i / sum(rate).
 *
 * Draw layout (the reproducibility contract): the pixel's firing
 * labels consume one uniform each, in label order, bulk-filled and
 * converted by the dispatched -log(u)/lambda vecmath kernel; a random
 * tie-break (if the final minimum bin holds several labels) consumes
 * exactly one bounded draw AFTER the pixel's TTF uniforms.  Identical
 * for the scalar and row entries and for every SIMD backend.
 */
RaceOutcome runTtfRace(std::span<const double> rates,
                       const RsuConfig &cfg, rng::Rng &gen);

/**
 * Same race, but reusing caller-owned scratch (the no-scratch
 * overload uses a per-thread buffer) and optionally asserting via
 * @p allFireHint that every rate is positive, which skips the firing
 * scan.  Bit-identical outcome and RNG consumption to the overload
 * above whenever the hint is honest.
 */
RaceOutcome runTtfRace(std::span<const double> rates,
                       const RsuConfig &cfg, rng::Rng &gen,
                       RaceRowScratch &scratch,
                       bool allFireHint = false);

/**
 * Run one race per pixel over a pixel-major rate plane (@p rates holds
 * count x @p m entries; pixel i's labels start at i * m).
 *
 * Bit-exact contract: outcomes and RNG consumption are identical to
 * calling runTtfRace() once per pixel in order.  When the race mode
 * draws nothing but the per-label exponentials (float time, or binned
 * time with a deterministic tie-break), the draws of the whole plane
 * are bulk-filled and converted by one -log(u)/lambda kernel pass;
 * binned mode with random tie-breaks draws between one pixel's TTFs
 * and the next pixel's, so that mode races pixel by pixel (each pixel
 * still bulk-draws its own TTFs) to preserve the draw order.
 *
 * @p allFireHint asserts that every rate in the plane is positive (no
 * label is cut off), letting the bulk path skip its firing scan.
 * Callers must pass true only when that genuinely holds — the flag
 * decides which labels are assumed to consume draws, so a wrong value
 * breaks the draw-order contract.
 */
void runTtfRaceRow(std::span<const double> rates, std::size_t m,
                   const RsuConfig &cfg, rng::Rng &gen,
                   std::span<RaceOutcome> out, RaceRowScratch &scratch,
                   bool allFireHint = false);

} // namespace core
} // namespace retsim

#endif // RETSIM_CORE_TTF_RACE_HH
