/**
 * @file
 * Distribution samplers and information measures built over Rng.
 *
 * The software-only MCMC baseline samples categorical label
 * distributions directly; the RET device model draws exponential
 * time-to-fluorescence values.  Entropy helpers back the paper's
 * entropy-rate figure (Sec. II-C).
 */

#ifndef RETSIM_RNG_DISTRIBUTIONS_HH
#define RETSIM_RNG_DISTRIBUTIONS_HH

#include <cstdint>
#include <span>
#include <vector>

#include "rng/rng.hh"

namespace retsim {
namespace rng {

/** Draw from Exp(rate): p(t) = rate * exp(-rate * t), rate > 0. */
double sampleExponential(Rng &gen, double rate);

/**
 * Fused batched inverse-CDF exponential: out[i] = -log(u[i]) /
 * rates[i], element for element the same arithmetic as
 * sampleExponential(), so a bulk-filled uniform buffer yields
 * bit-identical samples to per-call draws in the same order.  All
 * rates must be positive.
 */
void exponentialsFromUniforms(std::span<const double> u,
                              std::span<const double> rates,
                              std::span<double> out);

/**
 * Convenience wrapper: bulk-draw uniforms from @p gen (in exactly the
 * order sampleExponential() would have consumed them) directly into
 * @p out and convert them to TTFs in place.
 */
void fillExponentials(Rng &gen, std::span<const double> rates,
                      std::span<double> out);

/**
 * Draw a label from an unnormalized weight vector by inverse-CDF over
 * a single uniform.  Weights must be non-negative with positive sum.
 */
std::size_t sampleCategorical(Rng &gen, const std::vector<double> &weights);

/** Shannon entropy (bits) of an unnormalized weight vector. */
double shannonEntropyBits(const std::vector<double> &weights);

/**
 * Empirical Shannon entropy (bits/sample) of observed label counts —
 * used to estimate the entropy generation rate of a sampler.
 */
double empiricalEntropyBits(const std::vector<std::uint64_t> &counts);

} // namespace rng
} // namespace retsim

#endif // RETSIM_RNG_DISTRIBUTIONS_HH
