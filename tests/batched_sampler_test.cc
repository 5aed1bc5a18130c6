/**
 * @file
 * Tests for the batched row-sampling path: bit-exactness of
 * sampleRow() against the scalar sample() loop (including identical
 * RNG consumption) for all three samplers across quantization modes,
 * truncation policies and tie-break modes, with the RSU's two entries
 * also held to a literal stage-by-stage restatement of the per-pixel
 * draw that shares only the elementwise conversions and the draw
 * kernels with them; the
 * process-wide LambdaLut cache; the striped solver's counter
 * fold-back (mergeStats); and byte-identity of the batched
 * CheckerboardGibbsSolver against a reference reimplementation of the
 * pre-batching scalar solver.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "apps/denoising.hh"
#include "core/energy_to_lambda.hh"
#include "core/sampler_cdf.hh"
#include "core/sampler_rsu.hh"
#include "core/sampler_software.hh"
#include "img/synthetic.hh"
#include "mrf/checkerboard.hh"
#include "mrf/problem.hh"
#include "rng/distributions.hh"
#include "rng/rng.hh"
#include "simd/kernels.hh"
#include "util/fixed_point.hh"

namespace {

using namespace retsim;
using namespace retsim::core;

/** Pixel-major energy plane with varied magnitudes, exact ties and
 *  negative entries (which the RSU quantizer clamps to zero). */
std::vector<float>
energyPlane(int pixels, int m, std::uint64_t seed)
{
    rng::Xoshiro256 gen(seed);
    std::vector<float> e(static_cast<std::size_t>(pixels) * m);
    for (std::size_t i = 0; i < e.size(); ++i) {
        switch (gen.nextBounded(4)) {
          case 0: // small, tie-prone integers
            e[i] = static_cast<float>(gen.nextBounded(6));
            break;
          case 1: // mid-range energies
            e[i] = static_cast<float>(gen.nextDouble() * 60.0);
            break;
          case 2: // near the 8-bit saturation point
            e[i] = 200.0f + static_cast<float>(gen.nextDouble() * 80.0);
            break;
          default: // occasionally negative
            e[i] = static_cast<float>(gen.nextDouble() * 8.0 - 4.0);
            break;
        }
    }
    return e;
}

/**
 * The literal-race RSU draw for one pixel, restated from its
 * definition with nothing shared with RsuSampler but the elementwise
 * conversion functions and the draw kernels (expDrawBin,
 * rng::fillExponentials).  Stages 1-2: quantize every energy
 * (util::quantizeUnsigned, or clamp at zero for the float-energy
 * escape); stage 2b: subtract E_min under decay-rate scaling; stage
 * 3: LambdaLut / quantizeLambda / realLambda times lambda0.  Stages
 * 4-5 compact the firing labels and draw one TTF each.  Float time
 * takes the first strict minimum TTF.  Binned time bins and reduces
 * them with expDrawBin and resolves the tie by cfg.tieBreak (Random:
 * one bounded draw after the TTFs, then a walk over the compacted
 * bins).  The winner maps back to its label, and @p current is kept
 * when nothing fires.
 */
int
literalRsuSample(std::span<const float> energies, double temperature,
                 int current, const RsuConfig &cfg, rng::Rng &gen)
{
    const std::size_t m = energies.size();
    const bool use_lut =
        cfg.lambdaQuant != LambdaQuant::Float && !cfg.floatEnergy;
    const std::optional<LambdaLut> lut =
        use_lut ? std::optional<LambdaLut>(std::in_place, cfg,
                                           temperature)
                : std::nullopt;
    std::vector<double> e(m);
    for (std::size_t i = 0; i < m; ++i)
        e[i] = cfg.floatEnergy
                   ? std::max(static_cast<double>(energies[i]), 0.0)
                   : static_cast<double>(util::quantizeUnsigned(
                         energies[i], cfg.energyBits));
    const double e_min =
        cfg.decayRateScaling ? *std::min_element(e.begin(), e.end())
                             : 0.0;
    std::vector<double> rates(m);
    for (std::size_t i = 0; i < m; ++i) {
        const double scaled = e[i] - e_min;
        const double code =
            cfg.lambdaQuant == LambdaQuant::Float
                ? realLambda(scaled, temperature, cfg)
            : use_lut ? static_cast<double>(lut->lookup(
                            static_cast<std::uint64_t>(scaled)))
                      : static_cast<double>(
                            quantizeLambda(scaled, temperature, cfg));
        rates[i] = code * cfg.lambda0();
    }

    std::vector<double> firing;
    std::vector<int> label;
    for (std::size_t i = 0; i < m; ++i) {
        if (rates[i] > 0.0) {
            firing.push_back(rates[i]);
            label.push_back(static_cast<int>(i));
        }
    }
    if (firing.empty())
        return current;
    if (cfg.timeQuant == TimeQuant::Float) {
        std::vector<double> ttf(firing.size());
        rng::fillExponentials(gen, firing, ttf);
        std::size_t win = 0;
        for (std::size_t i = 1; i < ttf.size(); ++i) {
            if (ttf[i] < ttf[win])
                win = i;
        }
        return label[win];
    }
    std::vector<double> u(firing.size()), bins(firing.size());
    gen.fillUniformOpenLow(u);
    const simd::BinRaceResult br = simd::kernels().expDrawBin(
        u.data(), firing.data(), firing.size(),
        static_cast<double>(cfg.tMaxBins()),
        cfg.truncationPolicy == TruncationPolicy::InfiniteTtf,
        bins.data());
    if (br.contenders == 0)
        return current;
    std::size_t win =
        cfg.tieBreak == TieBreak::Last ? br.last : br.first;
    if (br.tied > 1 && cfg.tieBreak == TieBreak::Random) {
        std::uint64_t j = gen.nextBounded(br.tied);
        for (std::size_t i = win + 1; j != 0 && i < bins.size(); ++i) {
            if (bins[i] == br.bestBin && --j == 0)
                win = i;
        }
    }
    return label[win];
}

/**
 * Assert sampleRow() == the scalar sample() loop on identical fresh
 * sampler instances: same labels, same RNG consumption (the next raw
 * draw after the batch must agree).  With @p literal, both must also
 * agree with literalRsuSample() under that config.
 */
template <typename MakeSampler>
void
expectRowMatchesScalar(MakeSampler make, int m, double temperature,
                       std::uint64_t seed,
                       const RsuConfig *literal = nullptr)
{
    constexpr int kPixels = 57; // odd, to catch size bookkeeping
    auto plane = energyPlane(kPixels, m, seed);
    std::vector<int> current(kPixels);
    for (int i = 0; i < kPixels; ++i)
        current[i] = (i * 5) % m;

    auto scalar_sampler = make();
    rng::Xoshiro256 scalar_gen(seed ^ 0x5eed);
    std::vector<int> scalar_out(kPixels);
    for (int i = 0; i < kPixels; ++i)
        scalar_out[i] = scalar_sampler->sample(
            std::span<const float>(plane.data() +
                                       static_cast<std::size_t>(i) * m,
                                   static_cast<std::size_t>(m)),
            temperature, current[i], scalar_gen);

    auto batched_sampler = make();
    rng::Xoshiro256 batched_gen(seed ^ 0x5eed);
    std::vector<int> batched_out(kPixels);
    batched_sampler->sampleRow(plane, m, temperature, current,
                               batched_out, batched_gen);

    EXPECT_EQ(scalar_out, batched_out)
        << "label divergence for " << scalar_sampler->name() << " at T="
        << temperature;
    const std::uint64_t scalar_next = scalar_gen.next64();
    EXPECT_EQ(scalar_next, batched_gen.next64())
        << "RNG consumption divergence for " << scalar_sampler->name()
        << " at T=" << temperature;
    if (!literal)
        return;

    rng::Xoshiro256 literal_gen(seed ^ 0x5eed);
    std::vector<int> literal_out(kPixels);
    for (int i = 0; i < kPixels; ++i)
        literal_out[i] = literalRsuSample(
            std::span<const float>(plane.data() +
                                       static_cast<std::size_t>(i) * m,
                                   static_cast<std::size_t>(m)),
            temperature, current[i], *literal, literal_gen);
    EXPECT_EQ(scalar_out, literal_out)
        << "sample() departs from the literal draw for "
        << scalar_sampler->name() << " at T=" << temperature;
    EXPECT_EQ(scalar_next, literal_gen.next64())
        << "sample() consumes RNG unlike the literal draw for "
        << scalar_sampler->name() << " at T=" << temperature;
}

template <typename MakeSampler>
void
expectRowMatchesScalarAcrossTemps(MakeSampler make, int m,
                                  const RsuConfig *literal = nullptr)
{
    for (double t : {48.0, 6.0, 1.7, 0.6})
        for (std::uint64_t seed : {11ull, 202ull, 3003ull})
            expectRowMatchesScalar(make, m, t, seed, literal);
}

/** RSU sample() loop, sampleRow() and literalRsuSample() agree over
 *  the temperature x seed grid. */
void
expectRsuMatchesLiteral(const RsuConfig &cfg, int m)
{
    expectRowMatchesScalarAcrossTemps(
        [&cfg] { return std::make_unique<RsuSampler>(cfg); }, m, &cfg);
}

// ------------------------------------------------------ bit-exactness

TEST(BatchedSampler, SoftwareMatchesScalar)
{
    for (int m : {2, 16, 31})
        expectRowMatchesScalarAcrossTemps(
            [] { return std::make_unique<SoftwareSampler>(); }, m);
}

TEST(BatchedSampler, CdfLutMatchesScalar)
{
    for (int m : {2, 16, 31})
        expectRowMatchesScalarAcrossTemps(
            [] {
                return std::make_unique<CdfLutSampler>(
                    std::make_unique<rng::Mt19937>(99), 64);
            },
            m);
}

/** Label counts around the SIMD widths the firing-set kernel and the
 *  race split at: one label, odd tails, whole vectors and past 32. */
constexpr int kRsuWidths[] = {1, 2, 3, 5, 16, 25, 33};

TEST(BatchedSampler, RsuNewDesignMatchesScalar)
{
    // Binned time + random tie-break: the order-preserving per-pixel
    // race path.
    for (int m : kRsuWidths)
        expectRsuMatchesLiteral(RsuConfig::newDesign(), m);
}

TEST(BatchedSampler, RsuPreviousDesignMatchesScalar)
{
    // Integer lambda, no scaling, no cut-off, tight truncation: every
    // label fires.
    for (int m : kRsuWidths)
        expectRsuMatchesLiteral(RsuConfig::previousDesign(), m);
}

TEST(BatchedSampler, RsuDeterministicTieBreaksMatchScalar)
{
    // First/Last tie-breaks: no tie draw, one uniform per firing
    // label.
    for (TieBreak tb : {TieBreak::First, TieBreak::Last}) {
        RsuConfig cfg = RsuConfig::newDesign();
        cfg.tieBreak = tb;
        for (int m : {1, 5, 16, 33})
            expectRsuMatchesLiteral(cfg, m);
    }
}

TEST(BatchedSampler, RsuClampTruncationMatchesScalar)
{
    RsuConfig cfg = RsuConfig::newDesign();
    cfg.truncationPolicy = TruncationPolicy::ClampToLastBin;
    for (int m : {1, 5, 16, 33})
        expectRsuMatchesLiteral(cfg, m);

    cfg.tieBreak = TieBreak::First; // clamp + fused race path
    expectRsuMatchesLiteral(cfg, 16);

    // The Fig. 8 corners: the shortest and longest windows at the
    // lightest and heaviest truncation, under both policies.
    for (TruncationPolicy policy : {TruncationPolicy::InfiniteTtf,
                                    TruncationPolicy::ClampToLastBin}) {
        for (unsigned time_bits : {3u, 8u}) {
            for (double truncation : {0.01, 0.9}) {
                RsuConfig corner = RsuConfig::newDesign();
                corner.truncationPolicy = policy;
                corner.timeBits = time_bits;
                corner.truncation = truncation;
                for (int m : {1, 5, 16})
                    expectRsuMatchesLiteral(corner, m);
            }
        }
    }
}

TEST(BatchedSampler, RsuFloatEscapesMatchScalar)
{
    // Float time (continuous race, argmin over the TTFs)...
    RsuConfig cfg = RsuConfig::newDesign();
    cfg.timeQuant = TimeQuant::Float;
    expectRsuMatchesLiteral(cfg, 16);

    // ...float lambda over quantized energies (tabled realLambda)...
    cfg = RsuConfig::newDesign();
    cfg.lambdaQuant = LambdaQuant::Float;
    expectRsuMatchesLiteral(cfg, 16);

    // ...float energies (per-label conversion fallback)...
    cfg = RsuConfig::newDesign();
    cfg.floatEnergy = true;
    expectRsuMatchesLiteral(cfg, 16);

    // ...and the all-float methodology baseline.
    cfg = RsuConfig::newDesign();
    cfg.floatEnergy = true;
    cfg.lambdaQuant = LambdaQuant::Float;
    cfg.timeQuant = TimeQuant::Float;
    expectRsuMatchesLiteral(cfg, 16);
}

TEST(BatchedSampler, RsuCountersMatchScalar)
{
    // The batched path must account samples, no-sample events and
    // ties exactly like the scalar loop.
    const int m = 16;
    auto plane = energyPlane(200, m, 77);
    std::vector<int> current(200, 1);
    std::vector<int> out(200);

    RsuSampler scalar(RsuConfig::newDesign());
    rng::Xoshiro256 g1(123);
    for (int i = 0; i < 200; ++i)
        scalar.sample(
            std::span<const float>(plane.data() +
                                       static_cast<std::size_t>(i) * m,
                                   static_cast<std::size_t>(m)),
            0.8, current[i], g1);

    RsuSampler batched(RsuConfig::newDesign());
    rng::Xoshiro256 g2(123);
    batched.sampleRow(plane, m, 0.8, current, out, g2);

    EXPECT_EQ(scalar.totalSamples(), batched.totalSamples());
    EXPECT_EQ(scalar.noSampleEvents(), batched.noSampleEvents());
    EXPECT_EQ(scalar.tieEvents(), batched.tieEvents());
    EXPECT_EQ(scalar.conversionRebuilds(),
              batched.conversionRebuilds());
}

// ---------------------------------------------------------- LUT cache

TEST(LambdaLutCache, SharesTablesByConfigAndTemperature)
{
    LambdaLutCache &cache = LambdaLutCache::global();
    cache.clear();

    RsuConfig cfg = RsuConfig::newDesign();
    auto a = cache.get(cfg, 3.25);
    auto b = cache.get(cfg, 3.25);
    EXPECT_EQ(a.get(), b.get()) << "same (config, T) must share";
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);

    auto c = cache.get(cfg, 3.5);
    EXPECT_NE(a.get(), c.get()) << "different T must not share";

    RsuConfig other = cfg;
    other.lambdaBits = 6;
    EXPECT_NE(a.get(), cache.get(other, 3.25).get())
        << "different lambda precision must not share";

    // Scaling and the time parameters do not enter quantizeLambda(),
    // so configs differing only there share a table.
    RsuConfig scaled = cfg;
    scaled.decayRateScaling = !cfg.decayRateScaling;
    scaled.timeBits = cfg.timeBits + 2;
    scaled.truncation = 0.125;
    EXPECT_EQ(a.get(), cache.get(scaled, 3.25).get());

    EXPECT_EQ(cache.size(), 3u);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
}

TEST(LambdaLutCache, CachedTableIsBitIdenticalToDirectBuild)
{
    LambdaLutCache &cache = LambdaLutCache::global();
    RsuConfig cfg = RsuConfig::previousDesign();
    auto cached = cache.get(cfg, 1.375);
    LambdaLut direct(cfg, 1.375);
    ASSERT_EQ(cached->entries(), direct.entries());
    for (std::size_t e = 0; e < direct.entries(); ++e)
        EXPECT_EQ(cached->lookup(e), direct.lookup(e)) << "entry " << e;
}

// ----------------------------------------- solver-level bit-exactness

mrf::MrfProblem
denoisingProblem(int side, std::uint64_t seed)
{
    img::ImageU8 clean(side, side);
    for (int y = 0; y < side; ++y)
        for (int x = 0; x < side; ++x)
            clean(x, y) = static_cast<std::uint8_t>(
                img::textureIntensity(x, y, 0x777));
    img::ImageU8 noisy = apps::addGaussianNoise(clean, 12.0, seed);
    return apps::buildDenoisingProblem(noisy);
}

mrf::SolverConfig
annealConfig(int sweeps, std::uint64_t seed)
{
    mrf::SolverConfig cfg;
    cfg.annealing.sweeps = sweeps;
    cfg.annealing.t0 = 8.0;
    cfg.annealing.tEnd = 0.5;
    cfg.seed = seed;
    return cfg;
}

/** The pre-batching serial solver, reimplemented literally: one RNG
 *  stream, pixel-by-pixel conditionalEnergies() + sample().  Note the
 *  reproducibility contract this checks is "matches retsim vecmath":
 *  sample() draws its exponentials through the shared slog/vlog core,
 *  so this reference is byte-comparable to the batched path under any
 *  SIMD backend (vecmath_test.cc covers the backend sweep). */
img::LabelMap
referenceSerialSolve(const mrf::MrfProblem &problem,
                     mrf::LabelSampler &sampler,
                     const mrf::SolverConfig &cfg)
{
    img::LabelMap labels(problem.width(), problem.height(), 0);
    rng::Xoshiro256 gen(cfg.seed);
    const int m = problem.numLabels();
    if (cfg.randomInit) {
        for (int &l : labels.data())
            l = static_cast<int>(gen.nextBounded(m));
    }
    std::vector<float> energies(m);
    for (int s = 0; s < cfg.annealing.sweeps; ++s) {
        double temperature = cfg.annealing.temperature(s);
        for (int color = 0; color < 2; ++color)
            for (int y = 0; y < problem.height(); ++y)
                for (int x = (y + color) % 2; x < problem.width();
                     x += 2) {
                    problem.conditionalEnergies(labels, x, y,
                                                energies);
                    labels(x, y) = sampler.sample(
                        energies, temperature, labels(x, y), gen);
                }
    }
    return labels;
}

/** The pre-batching striped solver, reimplemented literally: one
 *  clone and one (seed, sweep, color, stripe) stream per stripe,
 *  scalar sample() per pixel.  Stripes run sequentially, which is the
 *  same chain by the determinism contract. */
img::LabelMap
referenceStripedSolve(const mrf::MrfProblem &problem,
                      mrf::LabelSampler &sampler,
                      const mrf::SolverConfig &cfg, int stripes)
{
    img::LabelMap labels(problem.width(), problem.height(), 0);
    rng::Xoshiro256 init_gen(cfg.seed);
    const int m = problem.numLabels();
    const int height = problem.height();
    if (cfg.randomInit) {
        for (int &l : labels.data())
            l = static_cast<int>(init_gen.nextBounded(m));
    }
    std::vector<std::unique_ptr<mrf::LabelSampler>> clones(
        static_cast<std::size_t>(stripes));
    for (int k = 0; k < stripes; ++k)
        clones[k] = sampler.clone(static_cast<std::uint64_t>(k));

    std::vector<float> energies(m);
    for (int s = 0; s < cfg.annealing.sweeps; ++s) {
        double temperature = cfg.annealing.temperature(s);
        for (int color = 0; color < 2; ++color) {
            for (int k = 0; k < stripes; ++k) {
                const int y0 = static_cast<int>(
                    static_cast<std::int64_t>(k) * height / stripes);
                const int y1 = static_cast<int>(
                    static_cast<std::int64_t>(k + 1) * height /
                    stripes);
                std::uint64_t seed = rng::streamSeed(
                    cfg.seed, static_cast<std::uint64_t>(s));
                seed = rng::streamSeed(
                    seed, static_cast<std::uint64_t>(color));
                seed = rng::streamSeed(
                    seed, static_cast<std::uint64_t>(k));
                rng::Xoshiro256 gen(seed);
                for (int y = y0; y < y1; ++y)
                    for (int x = (y + color) % 2;
                         x < problem.width(); x += 2) {
                        problem.conditionalEnergies(labels, x, y,
                                                    energies);
                        labels(x, y) = clones[k]->sample(
                            energies, temperature, labels(x, y), gen);
                    }
            }
        }
    }
    return labels;
}

TEST(BatchedSolver, SerialByteIdenticalToScalarReference)
{
    mrf::MrfProblem p = denoisingProblem(31, 5); // odd side: both
                                                 // row phases hit
                                                 // boundary pixels
    mrf::SolverConfig cfg = annealConfig(6, 91);

    {
        SoftwareSampler ref, batched;
        EXPECT_EQ(referenceSerialSolve(p, ref, cfg).data(),
                  mrf::CheckerboardGibbsSolver(cfg)
                      .run(p, batched)
                      .data());
    }
    {
        RsuSampler ref(RsuConfig::newDesign());
        RsuSampler batched(RsuConfig::newDesign());
        EXPECT_EQ(referenceSerialSolve(p, ref, cfg).data(),
                  mrf::CheckerboardGibbsSolver(cfg)
                      .run(p, batched)
                      .data());
    }
    {
        CdfLutSampler ref(std::make_unique<rng::Mt19937>(7), 64);
        CdfLutSampler batched(std::make_unique<rng::Mt19937>(7), 64);
        EXPECT_EQ(referenceSerialSolve(p, ref, cfg).data(),
                  mrf::CheckerboardGibbsSolver(cfg)
                      .run(p, batched)
                      .data());
    }
}

TEST(BatchedSolver, StripedByteIdenticalToScalarReference)
{
    mrf::MrfProblem p = denoisingProblem(30, 17);
    mrf::SolverConfig cfg = annealConfig(5, 23);
    cfg.stripes = 4;

    for (int threads : {1, 3}) {
        cfg.threads = threads;
        SoftwareSampler ref, batched;
        EXPECT_EQ(referenceStripedSolve(p, ref, cfg, 4).data(),
                  mrf::CheckerboardGibbsSolver(cfg)
                      .run(p, batched)
                      .data())
            << "threads=" << threads;

        RsuSampler rsu_ref(RsuConfig::newDesign());
        RsuSampler rsu_batched(RsuConfig::newDesign());
        EXPECT_EQ(referenceStripedSolve(p, rsu_ref, cfg, 4).data(),
                  mrf::CheckerboardGibbsSolver(cfg)
                      .run(p, rsu_batched)
                      .data())
            << "threads=" << threads;
    }
}

// ----------------------------------------------------- stats foldback

TEST(BatchedSolver, StripedRunFoldsCloneCountersIntoParent)
{
    mrf::MrfProblem p = denoisingProblem(24, 3);
    mrf::SolverConfig cfg = annealConfig(6, 13);

    RsuSampler serial(RsuConfig::newDesign());
    mrf::CheckerboardGibbsSolver(cfg).run(p, serial);

    cfg.threads = 3;
    cfg.stripes = 5;
    RsuSampler striped(RsuConfig::newDesign());
    mrf::CheckerboardGibbsSolver(cfg).run(p, striped);

    // Every pixel update must be accounted on the parent after the
    // fold-back, exactly as many as the serial run.
    EXPECT_EQ(striped.totalSamples(), serial.totalSamples());
    EXPECT_EQ(striped.totalSamples(),
              static_cast<std::uint64_t>(6) * 24 * 24);
    // The striped chain differs from the serial chain, so event
    // counts need not match serial exactly — but a cold clone saw
    // every temperature, so rebuild accounting must.
    EXPECT_EQ(striped.conversionRebuilds(),
              static_cast<std::uint64_t>(5) * 6);
    EXPECT_GT(striped.noSampleEvents() + striped.tieEvents(), 0u);
}

TEST(BatchedSolver, MergeStatsIgnoresForeignSamplerTypes)
{
    RsuSampler rsu(RsuConfig::newDesign());
    SoftwareSampler sw;
    std::uint64_t before = rsu.totalSamples();
    rsu.mergeStats(sw); // must not crash or miscount
    sw.mergeStats(rsu); // default no-op
    EXPECT_EQ(rsu.totalSamples(), before);
}

} // namespace
