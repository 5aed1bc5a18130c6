#include "core/sampler_rsu.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "core/ttf_race.hh"
#include "simd/kernels.hh"
#include "util/fixed_point.hh"
#include "util/logging.hh"

namespace retsim {
namespace core {

RsuSampler::RsuSampler(const RsuConfig &cfg) : RsuSampler(cfg, nullptr)
{
}

RsuSampler::RsuSampler(const RsuConfig &cfg,
                       std::shared_ptr<RateBindingCache> bindings)
    : cfg_(cfg), bindings_(std::move(bindings))
{
    cfg_.validate();
    useFastPath_ = RaceFastPath::resolve(cfg_);
    if (useFastPath_)
        fast_ = std::make_unique<RaceFastPath>(cfg_);
    // The binned fast path binds the classified form of every table.
    if (!bindings_)
        bindings_ = std::make_shared<RateBindingCache>(
            cfg_, useFastPath_ && cfg_.timeQuant == TimeQuant::Binned);
}

std::string
RsuSampler::name() const
{
    return cfg_.describe();
}

void
RsuSampler::mergeStats(const mrf::LabelSampler &other)
{
    const auto *rsu = dynamic_cast<const RsuSampler *>(&other);
    if (!rsu)
        return;
    noSampleEvents_ += rsu->noSampleEvents_;
    tieEvents_ += rsu->tieEvents_;
    conversionRebuilds_ += rsu->conversionRebuilds_;
    totalSamples_ += rsu->totalSamples_;
}

void
RsuSampler::saveState(std::vector<std::uint64_t> &out) const
{
    out.push_back(totalSamples_);
    out.push_back(noSampleEvents_);
    out.push_back(tieEvents_);
    out.push_back(conversionRebuilds_);
    out.push_back(std::bit_cast<std::uint64_t>(cachedTemperature_));
    out.push_back(std::bit_cast<std::uint64_t>(rateTableTemperature_));
}

bool
RsuSampler::loadState(std::span<const std::uint64_t> words)
{
    if (words.size() != 6)
        return false;
    const double cached_t = std::bit_cast<double>(words[4]);
    const double rate_t = std::bit_cast<double>(words[5]);
    // saveState() writes -1 (never converted) or a positive
    // temperature, and a rate-table temperature only for quantized
    // energies (float energies never fetch the LUT a table build
    // reads).  Anything else is a corrupt or crafted snapshot: reject
    // it before a refresh dereferences a missing LUT or builds one at
    // a non-positive temperature.  NaN fails both comparisons.
    const auto written = [](double t) { return t == -1.0 || t > 0.0; };
    if (!written(cached_t) || !written(rate_t) ||
        (cfg_.floatEnergy && rate_t != -1.0))
        return false;
    // Warm the derived caches for the checkpointed temperatures (the
    // draw paths keep lut_ aligned with cachedTemperature_ and
    // binding_ with rateTableTemperature_), then overwrite the
    // counters: the rebuilds these refreshes perform must not show up
    // as extra conversionRebuilds_ in a resumed run.
    if (rate_t > 0.0) {
        refreshConversion(rate_t);
        refreshRateTable(rate_t);
    }
    if (cached_t > 0.0)
        refreshConversion(cached_t);
    cachedTemperature_ = cached_t;
    rateTableTemperature_ = rate_t;
    totalSamples_ = words[0];
    noSampleEvents_ = words[1];
    tieEvents_ = words[2];
    conversionRebuilds_ = words[3];
    return true;
}

void
RsuSampler::refreshConversion(double temperature)
{
    // Rebuild the energy-to-lambda conversion when the annealing
    // temperature moves (the LUT rewrite / boundary-register refresh
    // of Sec. IV-B.3).  The table itself is memoized process-wide, so
    // stripe clones and repeated anneal schedules share one build.
    if (temperature == cachedTemperature_)
        return;
    cachedTemperature_ = temperature;
    ++conversionRebuilds_;
    bool use_lut = cfg_.lambdaQuant != LambdaQuant::Float &&
                   !cfg_.floatEnergy;
    if (use_lut)
        lut_ = LambdaLutCache::global().get(cfg_, temperature);
}

void
RsuSampler::refreshRateTable(double temperature)
{
    if (temperature == rateTableTemperature_)
        return;
    rateTableTemperature_ = temperature;
    // One binding per temperature for the whole run: the first clone
    // to reach it builds it, the others share it.  Keyed on the
    // binding held so far, so the alphabet union — and with it the
    // packed/general lane — is exactly this sampler's own history.
    std::shared_ptr<const RateBinding> next =
        bindings_->bind(temperature, lut_.get(), binding_);
    if (next == binding_)
        return; // content-identical: the binding already held
    binding_ = std::move(next);
    rateTable_ = binding_->rateTable.data();
    firingBound_ = binding_->firingBound;
    if (useFastPath_ && cfg_.timeQuant == TimeQuant::Binned)
        fast_->bind(binding_);
}

int
RsuSampler::commitOutcome(const RaceOutcome &oc, int current)
{
    if (oc.winner < 0) {
        // Every label was truncated or cut off; the unit produces no
        // sample and the variable keeps its current label.
        ++noSampleEvents_;
        return current;
    }
    if (oc.tie)
        ++tieEvents_;
    return oc.winner;
}

void
RsuSampler::sampleRowFast(std::span<const float> energies,
                          std::size_t n, std::size_t m,
                          double temperature,
                          std::span<const int> current,
                          std::span<int> out, rng::Rng &gen)
{
    // Fixed draws per pixel make the whole row bulk-fillable, which
    // is what keeps this bit-identical to the scalar loop (fillUniform
    // == that many sequential nextDouble() calls) and lets checkpoint
    // replay cut a row anywhere.
    const unsigned draws = fast_->drawsPerPixel();
    fastU_.resize(n * draws);
    gen.fillUniform(fastU_);
    if (cfg_.timeQuant == TimeQuant::Binned) {
        // Table-driven: stages 1-5 collapse to a fused quantize +
        // classify pass and a categorical draw — no per-label rates,
        // exponentials or argmin, no quantized plane, and the table
        // lookups overlap across pixels (see raceEnergiesRow).
        // RaceFastPath::supported() guarantees quantized energies and
        // a non-float lambda here, so a rate binding exists.
        refreshRateTable(temperature);
        const double top =
            static_cast<double>(util::maxUnsigned(cfg_.energyBits));
        outcomes_.resize(n);
        fast_->raceEnergiesRow(energies.data(), top,
                               cfg_.decayRateScaling, n, m,
                               fastU_.data(), outcomes_.data());
        for (std::size_t p = 0; p < n; ++p)
            out[p] = commitOutcome(outcomes_[p], current[p]);
        return;
    }
    // Float time: each pixel's literal firing set, filled just before
    // its draw (stages 1-3 draw nothing); one uniform inverts the
    // categorical CDF over it.
    for (std::size_t p = 0; p < n; ++p) {
        const std::size_t firing =
            fillRates(energies.data() + p * m, m, temperature);
        out[p] = commitOutcome(
            RaceFastPath::raceFloat(rates_.data(), labels_.data(),
                                    firing, fastU_[p]),
            current[p]);
    }
}

std::size_t
RsuSampler::fillRates(const float *energies, std::size_t m,
                      double temperature)
{
    if (rates_.size() < m) {
        rates_.resize(m);
        labels_.resize(m);
    }
    double *r = rates_.data();
    std::uint32_t *labels = labels_.data();
    if (!cfg_.floatEnergy) {
        // Quantized energies index the per-temperature rate table,
        // whose positive entries are a prefix: stages 1-3 are one
        // kernel call from the energies to the firing set.
        refreshRateTable(temperature);
        const double top =
            static_cast<double>(util::maxUnsigned(cfg_.energyBits));
        return simd::kernels().firingRates(energies, top,
                                           cfg_.decayRateScaling,
                                           rateTable_, firingBound_, m,
                                           r, labels);
    }
    // Float-energy escape: scaled energies are continuous, so the
    // conversion stays per label, and the positive rates are kept at
    // the running count.
    const double lambda0 = cfg_.lambda0();
    double e_min = 0.0;
    if (cfg_.decayRateScaling) {
        e_min = static_cast<double>(energies[0]);
        for (std::size_t j = 0; j < m; ++j)
            e_min = std::min(e_min, static_cast<double>(energies[j]));
        e_min = std::max(e_min, 0.0);
    }
    std::size_t firing = 0;
    for (std::size_t j = 0; j < m; ++j) {
        double scaled =
            std::max(static_cast<double>(energies[j]), 0.0) - e_min;
        const double rate =
            cfg_.lambdaQuant == LambdaQuant::Float
                ? realLambda(scaled, temperature, cfg_) * lambda0
                : static_cast<double>(
                      quantizeLambda(scaled, temperature, cfg_)) *
                      lambda0;
        r[firing] = rate;
        labels[firing] = static_cast<std::uint32_t>(j);
        firing += rate > 0.0 ? 1u : 0u;
    }
    return firing;
}

int
RsuSampler::drawLiteral(const float *energies, std::size_t m,
                        double temperature, int current, rng::Rng &gen)
{
    // Stages 1-3 (quantize, decay-rate scaling, energy-to-lambda,
    // cut-off) leave the firing set; stages 4-5 sample its
    // exponentials and select first-to-fire.
    const std::size_t firing = fillRates(energies, m, temperature);
    return commitOutcome(raceFiringSet(rates_.data(), labels_.data(),
                                       firing, cfg_, gen, raceScratch_),
                         current);
}

int
RsuSampler::sample(std::span<const float> energies, double temperature,
                   int current, rng::Rng &gen)
{
    RETSIM_ASSERT(!energies.empty(), "no labels to sample");
    RETSIM_ASSERT(temperature > 0.0, "temperature must be positive");
    ++totalSamples_;

    refreshConversion(temperature);

    if (!useFastPath_)
        return drawLiteral(energies.data(), energies.size(),
                           temperature, current, gen);
    int out;
    sampleRowFast(energies, 1, energies.size(), temperature,
                  {&current, 1}, {&out, 1}, gen);
    return out;
}

void
RsuSampler::sampleRow(std::span<const float> energies, int numLabels,
                      double temperature, std::span<const int> current,
                      std::span<int> out, rng::Rng &gen)
{
    const std::size_t n = current.size();
    const std::size_t m = static_cast<std::size_t>(numLabels);
    RETSIM_ASSERT(numLabels >= 1, "no labels to sample");
    RETSIM_ASSERT(energies.size() == n * m && out.size() == n,
                  "batch span sizes disagree");
    RETSIM_ASSERT(temperature > 0.0, "temperature must be positive");
    if (n == 0)
        return;
    totalSamples_ += n;

    refreshConversion(temperature);

    if (useFastPath_) {
        sampleRowFast(energies, n, m, temperature, current, out, gen);
        return;
    }
    for (std::size_t p = 0; p < n; ++p)
        out[p] = drawLiteral(energies.data() + p * m, m, temperature,
                             current[p], gen);
}

} // namespace core
} // namespace retsim
