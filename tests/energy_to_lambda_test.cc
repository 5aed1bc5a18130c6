/**
 * @file
 * Tests for the energy-to-lambda conversion: the quantization math of
 * Sec. III-C.2 (scaling to the maximum lambda, truncation, cut-off,
 * 2^n approximation), and the bit-identity of the LUT and comparator
 * hardware implementations across the whole (temperature x precision)
 * design space — the property that justifies Sec. IV-B.3's 0.46x/0.22x
 * swap.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/energy_to_lambda.hh"
#include "core/rsu_config.hh"

namespace {

using namespace retsim;
using namespace retsim::core;

// ------------------------------------------------------ quantizeLambda

TEST(QuantizeLambda, ZeroEnergyGetsMaxLambda)
{
    RsuConfig cfg = RsuConfig::newDesign();
    EXPECT_EQ(quantizeLambda(0.0, 10.0, cfg), cfg.lambdaMax());
    EXPECT_EQ(cfg.lambdaMax(), 8u); // 2^(4-1)
}

TEST(QuantizeLambda, CutoffBelowOne)
{
    RsuConfig cfg = RsuConfig::newDesign();
    // exp(-e/T) * 8 < 1  <=>  e > T ln 8.
    double t = 5.0;
    double boundary = t * std::log(8.0);
    EXPECT_EQ(quantizeLambda(boundary + 1.0, t, cfg), 0u);
    EXPECT_GE(quantizeLambda(boundary - 1.0, t, cfg), 1u);
}

TEST(QuantizeLambda, ClampUpWithoutCutoff)
{
    RsuConfig cfg = RsuConfig::previousDesign();
    EXPECT_FALSE(cfg.probabilityCutoff);
    // Even an enormous energy maps to lambda_0 = 1, never 0.
    EXPECT_EQ(quantizeLambda(255.0, 1.0, cfg), 1u);
}

TEST(QuantizeLambda, Pow2ValuesArePowersOfTwo)
{
    RsuConfig cfg = RsuConfig::newDesign();
    for (double e = 0.0; e <= 255.0; e += 1.0) {
        for (double t : {1.0, 4.0, 16.0, 64.0}) {
            std::uint32_t v = quantizeLambda(e, t, cfg);
            EXPECT_TRUE((v & (v - 1)) == 0) << "e=" << e << " t=" << t;
            EXPECT_LE(v, cfg.lambdaMax());
        }
    }
}

TEST(QuantizeLambda, IntegerModeUsesFullRange)
{
    RsuConfig cfg = RsuConfig::newDesign();
    cfg.lambdaQuant = LambdaQuant::Integer;
    EXPECT_EQ(cfg.lambdaMax(), 15u);
    // At a gentle temperature the intermediate integer codes appear.
    bool saw_non_pow2 = false;
    for (double e = 0.0; e <= 40.0; e += 1.0) {
        std::uint32_t v = quantizeLambda(e, 40.0, cfg);
        if (v != 0 && (v & (v - 1)) != 0)
            saw_non_pow2 = true;
    }
    EXPECT_TRUE(saw_non_pow2);
}

TEST(QuantizeLambda, MonotoneNonIncreasingInEnergy)
{
    for (auto quant : {LambdaQuant::Pow2, LambdaQuant::Integer}) {
        RsuConfig cfg = RsuConfig::newDesign();
        cfg.lambdaQuant = quant;
        for (double t : {0.8, 3.0, 12.0, 100.0}) {
            std::uint32_t prev = cfg.lambdaMax() + 1;
            for (double e = 0.0; e <= 255.0; e += 1.0) {
                std::uint32_t v = quantizeLambda(e, t, cfg);
                EXPECT_LE(v, prev);
                prev = v;
            }
        }
    }
}

TEST(QuantizeLambda, RatioPropertyUnderScaling)
{
    // Eq. 4: after scaling, the code of the minimum-energy label is
    // lambda_max, and codes encode relative probabilities.
    RsuConfig cfg = RsuConfig::newDesign();
    double t = 10.0;
    // Scaled energies 0 and just under t*ln(2): intended ratio 2.
    std::uint32_t a = quantizeLambda(0.0, t, cfg);
    std::uint32_t b = quantizeLambda(t * std::log(2.0) - 0.1, t, cfg);
    EXPECT_EQ(a, 8u);
    EXPECT_EQ(b, 4u) << "half the max rate, one power-of-two step";
    // Just past the boundary, truncate-then-floor drops to the next
    // power of two (floor(3.99...) = 3 -> 2).
    std::uint32_t c = quantizeLambda(t * std::log(2.0) + 0.1, t, cfg);
    EXPECT_EQ(c, 2u);
}

// ------------------------------------------------------------ LambdaLut

TEST(LambdaLut, TableSizeAndMemory)
{
    RsuConfig cfg = RsuConfig::newDesign();
    LambdaLut lut(cfg, 8.0);
    EXPECT_EQ(lut.entries(), 256u);
    EXPECT_EQ(lut.memoryBits(), 1024u); // the paper's 1 Kbit LUT
    EXPECT_EQ(lut.updateCycles(8), 128u);
}

TEST(LambdaLut, LookupClampsIndex)
{
    RsuConfig cfg = RsuConfig::newDesign();
    LambdaLut lut(cfg, 8.0);
    EXPECT_EQ(lut.lookup(9999), lut.lookup(255));
}

TEST(LambdaLut, MatchesDirectQuantization)
{
    RsuConfig cfg = RsuConfig::newDesign();
    for (double t : {0.9, 5.0, 48.0}) {
        LambdaLut lut(cfg, t);
        for (std::uint64_t e = 0; e < 256; ++e)
            EXPECT_EQ(lut.lookup(e),
                      quantizeLambda(double(e), t, cfg));
    }
}

// ----------------------------------------------------- LambdaComparator

TEST(LambdaComparator, ChosenPointUses32Bits)
{
    // Sec. IV-B.3: 4 boundary values x 8 bits = 32 bits of state,
    // refreshed in 4 cycles over the 8-bit interface.
    RsuConfig cfg = RsuConfig::newDesign();
    LambdaComparator cmp(cfg, 8.0);
    EXPECT_EQ(cmp.boundaries().size(), 4u);
    EXPECT_EQ(cmp.memoryBits(), 32u);
    EXPECT_EQ(cmp.updateCycles(8), 4u);
}

TEST(LambdaComparator, CodesDescendFromMax)
{
    RsuConfig cfg = RsuConfig::newDesign();
    LambdaComparator cmp(cfg, 8.0);
    ASSERT_FALSE(cmp.codes().empty());
    EXPECT_EQ(cmp.codes().front(), cfg.lambdaMax());
    for (std::size_t i = 1; i < cmp.codes().size(); ++i)
        EXPECT_LT(cmp.codes()[i], cmp.codes()[i - 1]);
}

// The load-bearing property: LUT and comparator are bit-identical
// over every energy, across temperatures and precision settings.
class ConverterEquivalence
    : public ::testing::TestWithParam<std::tuple<double, unsigned, int>>
{
};

TEST_P(ConverterEquivalence, BitIdentical)
{
    auto [temperature, lambda_bits, quant_mode] = GetParam();
    RsuConfig cfg = RsuConfig::newDesign();
    cfg.lambdaBits = lambda_bits;
    cfg.lambdaQuant = quant_mode == 0 ? LambdaQuant::Pow2
                                      : LambdaQuant::Integer;

    LambdaLut lut(cfg, temperature);
    LambdaComparator cmp(cfg, temperature);
    for (std::uint64_t e = 0; e < 256; ++e) {
        EXPECT_EQ(lut.lookup(e), cmp.convert(e))
            << "e=" << e << " T=" << temperature
            << " L=" << lambda_bits << " mode=" << quant_mode;
    }
}

INSTANTIATE_TEST_SUITE_P(
    DesignSpace, ConverterEquivalence,
    ::testing::Combine(
        ::testing::Values(0.6, 1.0, 3.7, 8.0, 20.0, 48.0, 130.0),
        ::testing::Values(3u, 4u, 5u, 7u),
        ::testing::Values(0, 1)));

// Equivalence must also hold for the previous design's clamp-up
// policy (no cut-off).
TEST(ConverterEquivalencePrev, ClampUpPolicy)
{
    RsuConfig cfg = RsuConfig::previousDesign();
    for (double t : {1.0, 10.0, 60.0}) {
        LambdaLut lut(cfg, t);
        LambdaComparator cmp(cfg, t);
        for (std::uint64_t e = 0; e < 256; ++e)
            EXPECT_EQ(lut.lookup(e), cmp.convert(e)) << "T=" << t;
    }
}

TEST(Converters, ComparatorShrinksStateVsLut)
{
    // The structural claim behind the 0.46x/0.22x converter savings:
    // 32 bits of boundary state vs 1,024 bits of table.
    RsuConfig cfg = RsuConfig::newDesign();
    LambdaLut lut(cfg, 8.0);
    LambdaComparator cmp(cfg, 8.0);
    EXPECT_EQ(lut.memoryBits() / cmp.memoryBits(), 32u);
    EXPECT_EQ(lut.updateCycles(8) / cmp.updateCycles(8), 32u);
}

// --------------------------------------------------------------- config

TEST(RsuConfig, Presets)
{
    RsuConfig prev = RsuConfig::previousDesign();
    EXPECT_FALSE(prev.decayRateScaling);
    EXPECT_FALSE(prev.probabilityCutoff);
    EXPECT_EQ(prev.lambdaQuant, LambdaQuant::Integer);
    EXPECT_DOUBLE_EQ(prev.truncation, 0.004);

    RsuConfig next = RsuConfig::newDesign();
    EXPECT_TRUE(next.decayRateScaling);
    EXPECT_TRUE(next.probabilityCutoff);
    EXPECT_EQ(next.lambdaQuant, LambdaQuant::Pow2);
    EXPECT_EQ(next.energyBits, 8u);
    EXPECT_EQ(next.lambdaBits, 4u);
    EXPECT_EQ(next.timeBits, 5u);
    EXPECT_DOUBLE_EQ(next.truncation, 0.5);
    EXPECT_EQ(next.tMaxBins(), 32u);
}

TEST(RsuConfig, UniqueLambdaCounts)
{
    RsuConfig cfg = RsuConfig::newDesign();
    EXPECT_EQ(cfg.uniqueLambdas(), 4u); // 1,2,4,8
    cfg.lambdaQuant = LambdaQuant::Integer;
    EXPECT_EQ(cfg.uniqueLambdas(), 15u);
}

TEST(RsuConfig, DescribeMentionsKeyFields)
{
    std::string d = RsuConfig::newDesign().describe();
    EXPECT_NE(d.find("E=8"), std::string::npos);
    EXPECT_NE(d.find("scaled"), std::string::npos);
    EXPECT_NE(d.find("cutoff"), std::string::npos);
    // The exact strings are sampler names, telemetry keys and
    // checkpoint samplerNames, so they must never drift.
    EXPECT_EQ(d, "RSU-G{E=8,L=4/pow2,scaled,cutoff,T=5/binned,"
                 "trunc=0.5}");
    RsuConfig fast = RsuConfig::newDesign();
    fast.raceMode = RaceMode::FastPath;
    EXPECT_EQ(fast.describe(),
              "RSU-G{E=8,L=4/pow2,scaled,cutoff,T=5/binned,"
              "trunc=0.5,fastpath}");
}

TEST(RsuConfig, SerializationRoundTrip)
{
    RsuConfig cfg = RsuConfig::previousDesign();
    cfg.tieBreak = TieBreak::Last;
    cfg.truncationPolicy = TruncationPolicy::ClampToLastBin;
    cfg.floatEnergy = true;
    RsuConfig back = RsuConfig::fromString(cfg.toString());
    EXPECT_EQ(back, cfg);

    RsuConfig def = RsuConfig::newDesign();
    EXPECT_EQ(RsuConfig::fromString(def.toString()), def);
}

TEST(RsuConfig, FromStringPartialKeepsDefaults)
{
    RsuConfig cfg =
        RsuConfig::fromString("lambda_bits=6 truncation=0.3");
    EXPECT_EQ(cfg.lambdaBits, 6u);
    EXPECT_DOUBLE_EQ(cfg.truncation, 0.3);
    // Everything else stays at the new-design defaults.
    EXPECT_EQ(cfg.energyBits, 8u);
    EXPECT_TRUE(cfg.decayRateScaling);
}

TEST(RsuConfig, FromStringRejectsUnknownKey)
{
    EXPECT_EXIT(RsuConfig::fromString("frobnicate=1"),
                ::testing::ExitedWithCode(1), "unknown config key");
}

TEST(RsuConfig, ValidateRejectsNonsense)
{
    RsuConfig cfg = RsuConfig::newDesign();
    cfg.truncation = 1.5;
    EXPECT_DEATH(cfg.validate(), "truncation");
}

} // namespace
