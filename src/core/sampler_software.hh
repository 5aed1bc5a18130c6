/**
 * @file
 * Double-precision software Gibbs sampler — the quality reference.
 *
 * Computes p(label i) proportional to exp(-E_i / T) in IEEE double
 * precision and samples the categorical directly, exactly what the
 * paper's software-only MATLAB baseline does (Sec. III-A).  Energies
 * are shifted by their minimum before exponentiation; the shift is
 * mathematically exact (it cancels in the normalization) and avoids
 * underflow at low temperatures.
 */

#ifndef RETSIM_CORE_SAMPLER_SOFTWARE_HH
#define RETSIM_CORE_SAMPLER_SOFTWARE_HH

#include <memory>
#include <vector>

#include "mrf/sampler.hh"

namespace retsim {
namespace core {

class SoftwareSampler : public mrf::LabelSampler
{
  public:
    SoftwareSampler() = default;

    int sample(std::span<const float> energies, double temperature,
               int current, rng::Rng &gen) override;

    /**
     * Batched row kernel: one bulk uniform fill for the whole batch
     * (the categorical inversion consumes exactly one draw per pixel),
     * then the per-pixel Boltzmann weights and inverse-CDF scan with
     * the virtual dispatch hoisted out of the pixel loop.  Bit-exact
     * against the scalar loop.
     */
    void sampleRow(std::span<const float> energies, int numLabels,
                   double temperature, std::span<const int> current,
                   std::span<int> out, rng::Rng &gen) override;

    std::string name() const override { return "software-float"; }

    /** Fold a stripe clone's sample count back into this sampler. */
    void mergeStats(const mrf::LabelSampler &other) override;

    /** The software path always samples: no ties, no no-sample. */
    mrf::SamplerStats stats() const override
    {
        return {samples_, 0, 0};
    }

    /** Stateless apart from scratch; the stream index is unused. */
    std::unique_ptr<mrf::LabelSampler>
    clone(std::uint64_t stream) const override
    {
        (void)stream;
        return std::make_unique<SoftwareSampler>();
    }

    /** Checkpoint state: just the sample counter. */
    void
    saveState(std::vector<std::uint64_t> &out) const override
    {
        out.push_back(samples_);
    }

    bool
    loadState(std::span<const std::uint64_t> words) override
    {
        if (words.size() != 1)
            return false;
        samples_ = words[0];
        return true;
    }

  private:
    /** Normalize-and-invert one pixel's weight row with @p u01,
     *  replicating sampleCategorical() decision for decision. */
    static int invertCdf(const double *w, std::size_t m, double u01);

    std::vector<double> weights_; // scratch, reused across calls
    std::vector<double> uniforms_; // scratch, batched draws
    std::uint64_t samples_ = 0;
};

} // namespace core
} // namespace retsim

#endif // RETSIM_CORE_SAMPLER_SOFTWARE_HH
