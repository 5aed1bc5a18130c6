/**
 * @file
 * Parameterized property sweep over the RSU-G design space: for every
 * combination of (Lambda_bits, Time_bits, Truncation, quantization
 * mode), the functional sampler must uphold its structural invariants
 * — valid labels, determinism, the decay-rate-scaling guarantee that
 * the minimum-energy label carries the maximum rate, chi-square
 * consistency of the all-float configuration with exact softmax, and
 * monotonicity of the cut-off threshold in temperature.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "core/energy_to_lambda.hh"
#include "core/sampler_rsu.hh"
#include "rng/rng.hh"
#include "support/chi_square.hh"

namespace {

using namespace retsim;
using namespace retsim::core;

using DesignPoint = std::tuple<unsigned /*lambdaBits*/,
                               unsigned /*timeBits*/,
                               double /*truncation*/, int /*quant*/>;

class DesignSpaceProperty : public ::testing::TestWithParam<DesignPoint>
{
  protected:
    RsuConfig
    makeConfig() const
    {
        auto [lambda_bits, time_bits, truncation, quant] = GetParam();
        RsuConfig cfg = RsuConfig::newDesign();
        cfg.lambdaBits = lambda_bits;
        cfg.timeBits = time_bits;
        cfg.truncation = truncation;
        cfg.lambdaQuant =
            quant == 0 ? LambdaQuant::Pow2 : LambdaQuant::Integer;
        return cfg;
    }
};

TEST_P(DesignSpaceProperty, SamplerAlwaysReturnsValidLabel)
{
    RsuConfig cfg = makeConfig();
    RsuSampler sampler(cfg);
    rng::Xoshiro256 gen(1);
    std::vector<float> energies = {3.0f, 17.0f, 250.0f, 9.0f, 60.0f};
    for (double t : {0.7, 4.0, 30.0, 120.0}) {
        for (int i = 0; i < 300; ++i) {
            int label = sampler.sample(energies, t, 2, gen);
            ASSERT_GE(label, 0);
            ASSERT_LT(label, 5);
        }
    }
}

TEST_P(DesignSpaceProperty, DeterministicPerSeed)
{
    RsuConfig cfg = makeConfig();
    RsuSampler s1(cfg), s2(cfg);
    rng::Xoshiro256 g1(7), g2(7);
    std::vector<float> energies = {5.0f, 12.0f, 30.0f};
    for (int i = 0; i < 200; ++i)
        ASSERT_EQ(s1.sample(energies, 6.0, 0, g1),
                  s2.sample(energies, 6.0, 0, g2));
}

TEST_P(DesignSpaceProperty, MinimumEnergyLabelCarriesMaxRate)
{
    // The decay-rate-scaling invariant (Eq. 4): after subtracting
    // E_min, the minimum-energy label maps to lambda_max at every
    // temperature and precision.
    RsuConfig cfg = makeConfig();
    for (double t : {0.6, 3.0, 11.0, 90.0}) {
        LambdaLut lut(cfg, t);
        EXPECT_EQ(lut.lookup(0), cfg.lambdaMax()) << "T=" << t;
    }
}

TEST_P(DesignSpaceProperty, CutoffThresholdGrowsWithTemperature)
{
    // The scaled energy at which labels get cut off is T ln(lambda
    // max): hotter chains keep more labels alive.
    RsuConfig cfg = makeConfig();
    auto cutoff_energy = [&](double t) {
        LambdaLut lut(cfg, t);
        std::size_t entries = std::size_t{1} << cfg.energyBits;
        for (std::uint64_t e = 0; e < entries; ++e)
            if (lut.lookup(e) == 0)
                return e;
        return static_cast<std::uint64_t>(entries);
    };
    EXPECT_LE(cutoff_energy(2.0), cutoff_energy(8.0));
    EXPECT_LE(cutoff_energy(8.0), cutoff_energy(32.0));
}

TEST_P(DesignSpaceProperty, ConverterEquivalenceHolds)
{
    RsuConfig cfg = makeConfig();
    for (double t : {1.3, 7.7, 41.0}) {
        LambdaLut lut(cfg, t);
        LambdaComparator cmp(cfg, t);
        for (std::uint64_t e = 0; e < 256; e += 3)
            ASSERT_EQ(lut.lookup(e), cmp.convert(e))
                << "e=" << e << " T=" << t;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DesignSpaceProperty,
    ::testing::Combine(::testing::Values(3u, 4u, 6u),
                       ::testing::Values(3u, 5u, 8u),
                       ::testing::Values(0.05, 0.5, 0.9),
                       ::testing::Values(0, 1)));

// ------------------------------------------------- float-mode exactness

TEST(FloatModeExactness, ChiSquareAgainstSoftmax)
{
    // All-float RSU = competing exponentials = exact softmax; verify
    // with a principled chi-square test instead of ad-hoc tolerances.
    RsuConfig cfg = RsuConfig::newDesign();
    cfg.floatEnergy = true;
    cfg.lambdaQuant = LambdaQuant::Float;
    cfg.timeQuant = TimeQuant::Float;
    RsuSampler sampler(cfg);
    rng::Xoshiro256 gen(99);

    std::vector<float> energies = {0.0f, 3.0f, 7.5f, 1.2f};
    double t = 2.5;
    std::vector<std::uint64_t> counts(energies.size(), 0);
    const int kDraws = 120000;
    for (int i = 0; i < kDraws; ++i)
        counts[sampler.sample(energies, t, 0, gen)]++;

    std::vector<double> expected(energies.size());
    for (std::size_t i = 0; i < energies.size(); ++i)
        expected[i] = std::exp(-energies[i] / t);
    EXPECT_TRUE(util::chiSquareConsistent(counts, expected));
}

TEST(FloatModeExactness, SoftmaxShiftInvariance)
{
    RsuConfig cfg = RsuConfig::newDesign();
    cfg.floatEnergy = true;
    cfg.lambdaQuant = LambdaQuant::Float;
    cfg.timeQuant = TimeQuant::Float;
    RsuSampler sampler(cfg);
    rng::Xoshiro256 gen(123);

    // With decay-rate scaling both inputs see identical scaled
    // energies, so identical seeds give identical draws.
    std::vector<float> a = {1.0f, 4.0f};
    std::vector<float> b = {101.0f, 104.0f};
    rng::Xoshiro256 g1(5), g2(5);
    RsuSampler s1(cfg), s2(cfg);
    for (int i = 0; i < 500; ++i)
        ASSERT_EQ(s1.sample(a, 3.0, 0, g1), s2.sample(b, 3.0, 0, g2));
}

} // namespace
