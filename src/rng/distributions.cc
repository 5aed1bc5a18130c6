#include "rng/distributions.hh"

#include <cmath>

#include "simd/kernels.hh"
#include "util/logging.hh"

namespace retsim {
namespace rng {

double
sampleExponential(Rng &gen, double rate)
{
    RETSIM_ASSERT(rate > 0.0, "exponential rate must be positive");
    // retsim vecmath, not std::log: a single scalar draw must equal
    // lane k of the batched expDraw kernel bit for bit (the
    // reproducibility contract — see src/simd/kernels.hh).
    return -simd::slog(gen.nextDoubleOpenLow()) / rate;
}

void
exponentialsFromUniforms(std::span<const double> u,
                         std::span<const double> rates,
                         std::span<double> out)
{
    RETSIM_ASSERT(u.size() == rates.size() && u.size() == out.size(),
                  "batched exponential span size mismatch");
    simd::kernels().expDraw(u.data(), rates.data(), out.data(),
                            u.size());
}

void
fillExponentials(Rng &gen, std::span<const double> rates,
                 std::span<double> out)
{
    gen.fillUniformOpenLow(out);
    // In-place conversion: expDraw reads each uniform before storing
    // the TTF over it, so out can double as the uniform buffer.
    exponentialsFromUniforms(out, rates, out);
}

std::size_t
sampleCategorical(Rng &gen, const std::vector<double> &weights)
{
    RETSIM_ASSERT(!weights.empty(), "empty weight vector");
    double total = 0.0;
    for (double w : weights) {
        RETSIM_ASSERT(w >= 0.0, "negative categorical weight");
        total += w;
    }
    RETSIM_ASSERT(total > 0.0, "categorical weights sum to zero");

    double u = gen.nextDouble() * total;
    double acc = 0.0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        acc += weights[i];
        if (u < acc)
            return i;
    }
    // Floating-point slack: u can land at exactly `total`.
    for (std::size_t i = weights.size(); i-- > 0;) {
        if (weights[i] > 0.0)
            return i;
    }
    return weights.size() - 1;
}

double
shannonEntropyBits(const std::vector<double> &weights)
{
    double total = 0.0;
    for (double w : weights)
        total += w;
    if (total <= 0.0)
        return 0.0;
    double h = 0.0;
    for (double w : weights) {
        if (w <= 0.0)
            continue;
        double p = w / total;
        h -= p * std::log2(p);
    }
    return h;
}

double
empiricalEntropyBits(const std::vector<std::uint64_t> &counts)
{
    std::vector<double> w(counts.size());
    for (std::size_t i = 0; i < counts.size(); ++i)
        w[i] = static_cast<double>(counts[i]);
    return shannonEntropyBits(w);
}

} // namespace rng
} // namespace retsim
