/**
 * @file
 * Functional simulator of an RSU-G label sampler.
 *
 * Replays the RSU-G pipeline math stage by stage for one pixel
 * evaluation: quantize the conditional energies to Energy_bits,
 * optionally rescale by the minimum energy (decay-rate scaling,
 * Eq. 4), convert each energy to a quantized decay rate (LUT /
 * comparator math with probability cut-off and 2^n approximation) and
 * race the resulting exponentials through the truncated, binned time
 * measurement.  The RsuConfig selects between the previous and new
 * designs and every intermediate ablation, including the float
 * escapes used for the paper's sequential precision methodology.
 *
 * The conversion table depends on the annealing temperature, so it is
 * rebuilt whenever T changes; the rebuild count is exposed because the
 * two hardware implementations pay very different stall costs for it
 * (Sec. IV-B.3) — the cycle-level pipeline model consumes it.
 */

#ifndef RETSIM_CORE_SAMPLER_RSU_HH
#define RETSIM_CORE_SAMPLER_RSU_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/energy_to_lambda.hh"
#include "core/race_fastpath.hh"
#include "core/rate_binding.hh"
#include "core/rsu_config.hh"
#include "core/ttf_race.hh"
#include "mrf/sampler.hh"

namespace retsim {
namespace core {

class RsuSampler : public mrf::LabelSampler
{
  public:
    explicit RsuSampler(const RsuConfig &cfg);

    /** A sampler binding its rate tables through @p bindings, the
     *  handle of the run it joins (clone()). */
    RsuSampler(const RsuConfig &cfg,
               std::shared_ptr<RateBindingCache> bindings);

    /**
     * One pixel evaluation: the literal race draws it through
     * drawLiteral(), the fast path through sampleRowFast() with a
     * one-pixel row.
     */
    int sample(std::span<const float> energies, double temperature,
               int current, rng::Rng &gen) override;

    /**
     * Row entry: the literal race loops drawLiteral() over the
     * pixels; the fast path bulk-fills the row's uniforms and draws
     * it through sampleRowFast().  Each mode has one draw
     * implementation, so outcomes and RNG consumption equal the
     * scalar loop's by construction.
     */
    void sampleRow(std::span<const float> energies, int numLabels,
                   double temperature, std::span<const int> current,
                   std::span<int> out, rng::Rng &gen) override;

    /** Always null: kept only for perfbench's TracingSampler. */
    const RaceFastPath::RowCacheStats *rowCacheStats() const
    {
        return nullptr;
    }

    std::string name() const override;

    /** Fold a stripe clone's counters back into this sampler. */
    void mergeStats(const mrf::LabelSampler &other) override;

    /** Uniform counter snapshot for solver telemetry. */
    mrf::SamplerStats stats() const override
    {
        return {totalSamples_, noSampleEvents_, tieEvents_};
    }

    /**
     * Same device configuration, fresh conversion cache and counters,
     * and this sampler's RateBindingCache, marked shared, so a run's
     * clones bind each temperature through one shared binding.  The
     * RSU draws entropy from the solver-provided generator, so the
     * stream index is unused.
     */
    std::unique_ptr<mrf::LabelSampler>
    clone(std::uint64_t stream) const override
    {
        (void)stream;
        bindings_->share();
        return std::make_unique<RsuSampler>(cfg_, bindings_);
    }

    /**
     * Checkpoint state: the four instrumentation counters plus the
     * temperatures of the cached conversion LUT and rate table.  The
     * tables themselves are derived data — loadState() rebuilds them
     * from the process-wide cache, then restores the counters so a
     * resumed run reports exactly the uninterrupted run's totals.
     * loadState() rejects temperature words saveState() never writes:
     * anything but -1 or a positive value, and a rate-table
     * temperature under float energies.
     */
    void saveState(std::vector<std::uint64_t> &out) const override;
    bool loadState(std::span<const std::uint64_t> words) override;

    const RsuConfig &config() const { return cfg_; }

    /** The rate binding of the last temperature drawn at (null before
     *  the first quantized-energy draw). */
    const std::shared_ptr<const RateBinding> &rateBinding() const
    {
        return binding_;
    }

    /** The run's binding handle, shared with every clone. */
    const RateBindingCache &rateBindings() const { return *bindings_; }

    /** Whether cfg_.raceMode resolved to the categorical fast path
     *  (RaceFastPath::resolve); fixed at construction. */
    bool usingFastPath() const { return useFastPath_; }

    // ---- instrumentation ---------------------------------------------
    /** Pixel evaluations where no label fired (current label kept). */
    std::uint64_t noSampleEvents() const { return noSampleEvents_; }
    /** Pixel evaluations decided by a bin tie-break. */
    std::uint64_t tieEvents() const { return tieEvents_; }
    /** Temperature changes that forced a conversion-table rebuild. */
    std::uint64_t conversionRebuilds() const
    {
        return conversionRebuilds_;
    }
    std::uint64_t totalSamples() const { return totalSamples_; }

  private:
    /** Swap in the conversion state for @p temperature (LUT via the
     *  process-wide cache); counts temperature-change rebuilds. */
    void refreshConversion(double temperature);

    /** Bind @p temperature's RateBinding (the quantized-energy ->
     *  absolute-rate table that fillRates() indexes and, binned, the
     *  fast path's classification) from the run's handle; only
     *  exists when energies are quantized (the index domain is then
     *  2^Energy_bits).  No-op while the temperature is unchanged. */
    void refreshRateTable(double temperature);

    /**
     * Stages 1-3 of one pixel of @p m labels, straight to its firing
     * set: the firing labels' rates in rates_ and their indices in
     * labels_, in label order.  Quantized energies take one
     * firingRates kernel call (quantize, E_min, keep the labels below
     * the binding's firingBound, read only their table entries); the
     * float-energy escape converts label by label (realLambda /
     * quantizeLambda x lambda0) and keeps the positive rates.
     * Returns the firing count.
     */
    std::size_t fillRates(const float *energies, std::size_t m,
                          double temperature);

    /** Counter bookkeeping shared by every race flavor: bump
     *  no-sample/tie counters and map "no label fired" to the kept
     *  current label. */
    int commitOutcome(const RaceOutcome &oc, int current);

    /** The literal race for one pixel: fillRates(),
     *  raceFiringSet(), commitOutcome(). */
    int drawLiteral(const float *energies, std::size_t m,
                    double temperature, int current, rng::Rng &gen);

    /** The fast path for @p n pixels (binned: fused quantize +
     *  classify + table draw straight off the energies; float time:
     *  each pixel's CDF inversion over its fillRates() firing set). */
    void sampleRowFast(std::span<const float> energies, std::size_t n,
                       std::size_t m, double temperature,
                       std::span<const int> current, std::span<int> out,
                       rng::Rng &gen);

    RsuConfig cfg_;
    double cachedTemperature_ = -1.0;
    std::shared_ptr<const LambdaLut> lut_;
    /** One pixel's firing set from fillRates(): rates and labels. */
    std::vector<double> rates_;
    std::vector<std::uint32_t> labels_;

    // ---- rate binding and race scratch -------------------------------
    /** The run's bindings, shared with every clone. */
    std::shared_ptr<RateBindingCache> bindings_;
    double rateTableTemperature_ = -1.0;
    std::shared_ptr<const RateBinding> binding_; ///< rateTableTemperature_'s
    /** binding_'s rate table and firing bound, read by fillRates()
     *  once per literal-race pixel without the pointer hop. */
    const double *rateTable_ = nullptr;
    std::size_t firingBound_ = 0;
    std::vector<RaceOutcome> outcomes_;
    RaceRowScratch raceScratch_;

    // ---- categorical fast path (raceMode != Race) --------------------
    bool useFastPath_ = false;
    std::unique_ptr<RaceFastPath> fast_;
    std::vector<double> fastU_; ///< bulk uniform scratch

    std::uint64_t noSampleEvents_ = 0;
    std::uint64_t tieEvents_ = 0;
    std::uint64_t conversionRebuilds_ = 0;
    std::uint64_t totalSamples_ = 0;
};

} // namespace core
} // namespace retsim

#endif // RETSIM_CORE_SAMPLER_RSU_HH
