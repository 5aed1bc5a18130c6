/**
 * @file
 * Pseudo-RNG CDF-LUT sampler — the pure-CMOS alternative of Table IV.
 *
 * A conventional RNG (LFSR, mt19937, or a true-RNG model) lacks
 * programmability: to sample a parameterized distribution it must
 * store the target cumulative distribution in a LUT and invert it with
 * a uniform draw (Sec. IV-C).  This sampler reproduces that structure
 * so the quality of LFSR/mt19937-driven Gibbs sampling can be compared
 * against the RSU-G on the same applications, and its LUT size feeds
 * the area model.
 *
 * The sampler owns its entropy source (that is the device under
 * study); the solver-provided generator is ignored.
 */

#ifndef RETSIM_CORE_SAMPLER_CDF_HH
#define RETSIM_CORE_SAMPLER_CDF_HH

#include <memory>
#include <vector>

#include "mrf/sampler.hh"

namespace retsim {
namespace core {

class CdfLutSampler : public mrf::LabelSampler
{
  public:
    /**
     * @param source Entropy source under study (owned).
     * @param max_labels Capacity of the CDF LUT; feeds the area model
     *        (LUT size is proportional to the label limit).
     */
    CdfLutSampler(std::unique_ptr<rng::Rng> source,
                  int max_labels = 64);

    int sample(std::span<const float> energies, double temperature,
               int current, rng::Rng &gen) override;

    /**
     * Batched row kernel: bulk-draws the batch's uniforms from the
     * owned entropy source (one per pixel, same order as the scalar
     * loop) and inverts each pixel's cumulative table without the
     * per-pixel virtual dispatch.  Bit-exact against the scalar loop.
     */
    void sampleRow(std::span<const float> energies, int numLabels,
                   double temperature, std::span<const int> current,
                   std::span<int> out, rng::Rng &gen) override;

    std::string name() const override;

    /** Fold a stripe clone's sample count back into this sampler. */
    void mergeStats(const mrf::LabelSampler &other) override;

    /** CDF inversion always yields a label: no ties, no no-sample. */
    mrf::SamplerStats stats() const override
    {
        return {samples_, 0, 0};
    }

    /** Clone with an independently forked entropy stream. */
    std::unique_ptr<mrf::LabelSampler>
    clone(std::uint64_t stream) const override
    {
        return std::make_unique<CdfLutSampler>(source_->split(stream),
                                               maxLabels_);
    }

    /**
     * Checkpoint state: the sample counter plus the owned entropy
     * source's position — the device's draw stream must continue
     * exactly where the interrupted run stopped.
     */
    void
    saveState(std::vector<std::uint64_t> &out) const override
    {
        out.push_back(samples_);
        source_->saveState(out);
    }

    bool
    loadState(std::span<const std::uint64_t> words) override
    {
        if (words.empty() || !source_->loadState(words.subspan(1)))
            return false;
        samples_ = words[0];
        return true;
    }

    int maxLabels() const { return maxLabels_; }

  private:
    /** In-place running sum, the cumulative table the LUT stores. */
    static void prefixSum(double *w, std::size_t m);
    /** Invert an already prefix-summed table with @p u01. */
    static int invertPrefixed(const double *cdf, std::size_t m,
                              double u01);

    std::unique_ptr<rng::Rng> source_;
    int maxLabels_;
    std::vector<double> cdf_;      // scratch
    std::vector<double> uniforms_; // scratch, batched draws
    std::uint64_t samples_ = 0;
};

} // namespace core
} // namespace retsim

#endif // RETSIM_CORE_SAMPLER_CDF_HH
