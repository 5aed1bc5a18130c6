#include "core/sampler_software.hh"

#include "rng/distributions.hh"
#include "simd/kernels.hh"
#include "util/logging.hh"

namespace retsim {
namespace core {

int
SoftwareSampler::sample(std::span<const float> energies,
                        double temperature, int current, rng::Rng &gen)
{
    (void)current;
    RETSIM_ASSERT(!energies.empty(), "no labels to sample");
    RETSIM_ASSERT(temperature > 0.0, "temperature must be positive");

    // exp((e_min - e_i)/T) through sampleRow()'s weight kernel as a
    // one-pixel row, so scalar and batched weights are bit-identical.
    weights_.resize(energies.size());
    simd::kernels().gibbsWeightsRow(energies.data(), 1, energies.size(),
                                    temperature, weights_.data());
    ++samples_;
    return static_cast<int>(rng::sampleCategorical(gen, weights_));
}

void
SoftwareSampler::sampleRow(std::span<const float> energies,
                           int numLabels, double temperature,
                           std::span<const int> current,
                           std::span<int> out, rng::Rng &gen)
{
    (void)current;
    const std::size_t n = out.size();
    const std::size_t m = static_cast<std::size_t>(numLabels);
    RETSIM_ASSERT(numLabels >= 1, "no labels to sample");
    RETSIM_ASSERT(energies.size() == n * m && current.size() == n,
                  "batch span sizes disagree");
    RETSIM_ASSERT(temperature > 0.0, "temperature must be positive");
    if (n == 0)
        return;

    // One categorical inversion consumes exactly one uniform, so the
    // whole batch's draws can be prefetched in one bulk fill — the
    // i-th buffered value is bit-identical to the draw the i-th
    // scalar sample() call would have made.
    uniforms_.resize(n);
    gen.fillUniform(uniforms_);

    samples_ += n;
    // Whole-row Boltzmann weights in one kernel call: per-pixel min
    // scan, staged (e_min - e)/T quotients, then one batched exp over
    // all n*m entries — bit-identical to n one-pixel calls (the exp
    // core is lane/width invariant), ~4x fewer dispatches.
    weights_.resize(n * m);
    simd::kernels().gibbsWeightsRow(energies.data(), n, m,
                                    temperature, weights_.data());
    for (std::size_t p = 0; p < n; ++p)
        out[p] = invertCdf(weights_.data() + p * m, m, uniforms_[p]);
}

int
SoftwareSampler::invertCdf(const double *w, std::size_t m, double u01)
{
    double total = 0.0;
    for (std::size_t i = 0; i < m; ++i)
        total += w[i];

    // Inverse-CDF scan, replicating sampleCategorical() decision
    // for decision (including its end-of-range fallback).
    double u = u01 * total;
    double acc = 0.0;
    int chosen = static_cast<int>(m) - 1;
    std::size_t i = 0;
    for (; i < m; ++i) {
        acc += w[i];
        if (u < acc) {
            chosen = static_cast<int>(i);
            break;
        }
    }
    if (i == m) {
        for (std::size_t k = m; k-- > 0;) {
            if (w[k] > 0.0) {
                chosen = static_cast<int>(k);
                break;
            }
        }
    }
    return chosen;
}

void
SoftwareSampler::mergeStats(const mrf::LabelSampler &other)
{
    const auto *sw = dynamic_cast<const SoftwareSampler *>(&other);
    if (sw)
        samples_ += sw->samples_;
}

} // namespace core
} // namespace retsim
