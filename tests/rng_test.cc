/**
 * @file
 * Unit tests for the RNG substrate: generator determinism and range
 * behavior, LFSR structure (period, maximal taps), distribution
 * samplers (exponential, categorical, CDF tables) and entropy math.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "rng/distributions.hh"
#include "rng/lfsr.hh"
#include "rng/rng.hh"
#include "support/chi_square.hh"
#include "util/stats.hh"

namespace {

using namespace retsim;
using namespace retsim::rng;

// ----------------------------------------------------------- generators

TEST(SplitMix64, MatchesReferenceSequence)
{
    // Reference values for seed 0 (Vigna's splitmix64.c).
    SplitMix64 sm(0);
    EXPECT_EQ(sm.next64(), 0xe220a8397b1dcdafULL);
    EXPECT_EQ(sm.next64(), 0x6e789e6aa1b965f4ULL);
    EXPECT_EQ(sm.next64(), 0x06c45d188009454fULL);
}

TEST(Xoshiro256, DeterministicPerSeed)
{
    Xoshiro256 a(42), b(42), c(43);
    for (int i = 0; i < 16; ++i) {
        std::uint64_t va = a.next64();
        EXPECT_EQ(va, b.next64());
        (void)c;
    }
    Xoshiro256 d(43);
    EXPECT_NE(Xoshiro256(42).next64(), d.next64());
}

TEST(Xoshiro256, JumpDecorrelatesStreams)
{
    Xoshiro256 a(7), b(7);
    b.jump();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next64() == b.next64();
    EXPECT_LE(same, 1);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Xoshiro256 gen(3);
    for (int i = 0; i < 10000; ++i) {
        double u = gen.nextDouble();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, NextDoubleOpenLowNeverZero)
{
    // Force a zero draw: CountingRng returning 0 exercises the edge.
    CountingRng gen({0, 0, 0});
    double u = gen.nextDoubleOpenLow();
    EXPECT_GT(u, 0.0);
    EXPECT_LE(u, 1.0);
    EXPECT_TRUE(std::isfinite(-std::log(u)));
}

TEST(Rng, NextBoundedRangeAndCoverage)
{
    Xoshiro256 gen(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        std::uint64_t v = gen.nextBounded(7);
        EXPECT_LT(v, 7u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextBoundedUniformity)
{
    Xoshiro256 gen(5);
    const int kBuckets = 8, kDraws = 80000;
    std::vector<int> counts(kBuckets, 0);
    for (int i = 0; i < kDraws; ++i)
        counts[gen.nextBounded(kBuckets)]++;
    double expected = double(kDraws) / kBuckets;
    for (int c : counts)
        EXPECT_NEAR(c, expected, 5.0 * std::sqrt(expected));
}

TEST(CountingRng, ReplaysAndCycles)
{
    CountingRng gen({10, 20, 30});
    EXPECT_EQ(gen.next64(), 10u);
    EXPECT_EQ(gen.next64(), 20u);
    EXPECT_EQ(gen.next64(), 30u);
    EXPECT_EQ(gen.next64(), 10u);
    EXPECT_EQ(gen.draws(), 4u);
}

TEST(StreamSeed, DistinctAcrossIndices)
{
    std::set<std::uint64_t> seeds;
    for (std::uint64_t i = 0; i < 100; ++i)
        seeds.insert(streamSeed(1234, i));
    EXPECT_EQ(seeds.size(), 100u);
}

// ----------------------------------------------------------------- lfsr

TEST(Lfsr, Lfsr19HasMaximalPeriod)
{
    Lfsr lfsr = Lfsr::makeLfsr19(1);
    std::uint64_t initial = lfsr.state();
    std::uint64_t period = 0;
    do {
        lfsr.stepBit();
        ++period;
    } while (lfsr.state() != initial && period <= lfsr.maximalPeriod());
    EXPECT_EQ(period, lfsr.maximalPeriod()); // 2^19 - 1 = 524287
}

TEST(Lfsr, ZeroSeedIsCorrected)
{
    Lfsr lfsr(19, {19, 18, 17, 14}, 0);
    EXPECT_NE(lfsr.state(), 0u);
    // The register must never enter the all-zero lock-up state.
    for (int i = 0; i < 1000; ++i) {
        lfsr.stepBit();
        EXPECT_NE(lfsr.state(), 0u);
    }
}

TEST(Lfsr, SmallLfsrKnownSequence)
{
    // 3-bit maximal LFSR (taps 3,2) visits all 7 nonzero states.
    Lfsr lfsr(3, {3, 2}, 1);
    std::set<std::uint64_t> states;
    for (int i = 0; i < 7; ++i) {
        states.insert(lfsr.state());
        lfsr.stepBit();
    }
    EXPECT_EQ(states.size(), 7u);
}

TEST(Lfsr, StepBitsPacksMsbFirst)
{
    Lfsr a = Lfsr::makeLfsr19(99);
    Lfsr b = Lfsr::makeLfsr19(99);
    std::uint64_t packed = a.stepBits(8);
    std::uint64_t manual = 0;
    for (int i = 0; i < 8; ++i)
        manual = (manual << 1) | b.stepBit();
    EXPECT_EQ(packed, manual);
}

TEST(Lfsr, BitBalance)
{
    Lfsr lfsr = Lfsr::makeLfsr19(77);
    int ones = 0;
    const int kDraws = 100000;
    for (int i = 0; i < kDraws; ++i)
        ones += lfsr.stepBit();
    EXPECT_NEAR(ones, kDraws / 2, 4 * std::sqrt(kDraws / 4.0));
}

// -------------------------------------------------------- distributions

TEST(Exponential, MeanMatchesRate)
{
    Xoshiro256 gen(17);
    for (double rate : {0.25, 1.0, 4.0}) {
        util::RunningStats s;
        for (int i = 0; i < 50000; ++i)
            s.add(sampleExponential(gen, rate));
        EXPECT_NEAR(s.mean(), 1.0 / rate, 4.0 / (rate * std::sqrt(50000.0)))
            << "rate " << rate;
        EXPECT_GT(s.min(), 0.0);
    }
}

TEST(Exponential, MemorylessTailFraction)
{
    // P(T > t) = exp(-rate t).
    Xoshiro256 gen(19);
    const double rate = 0.5, t = 2.0;
    int beyond = 0;
    const int kDraws = 50000;
    for (int i = 0; i < kDraws; ++i)
        beyond += sampleExponential(gen, rate) > t;
    double p = std::exp(-rate * t);
    EXPECT_NEAR(beyond / double(kDraws), p,
                5 * std::sqrt(p * (1 - p) / kDraws));
}

TEST(Categorical, RespectsWeights)
{
    Xoshiro256 gen(23);
    std::vector<double> w = {1.0, 2.0, 3.0, 1.0};
    std::vector<int> counts(w.size(), 0);
    const int kDraws = 70000;
    for (int i = 0; i < kDraws; ++i)
        counts[sampleCategorical(gen, w)]++;
    double total = 7.0;
    for (std::size_t i = 0; i < w.size(); ++i) {
        double p = w[i] / total;
        EXPECT_NEAR(counts[i] / double(kDraws), p,
                    5 * std::sqrt(p * (1 - p) / kDraws));
    }
}

TEST(Categorical, ZeroWeightNeverChosen)
{
    Xoshiro256 gen(29);
    std::vector<double> w = {0.0, 1.0, 0.0};
    for (int i = 0; i < 2000; ++i)
        EXPECT_EQ(sampleCategorical(gen, w), 1u);
}

TEST(Categorical, SingleLabel)
{
    Xoshiro256 gen(31);
    EXPECT_EQ(sampleCategorical(gen, {5.0}), 0u);
}

TEST(Rng, XoshiroByteUniformityChiSquare)
{
    // Low byte of the output across 2^8 bins at the 0.1% level.
    Xoshiro256 gen(101);
    std::vector<std::uint64_t> counts(256, 0);
    for (int i = 0; i < 256 * 400; ++i)
        counts[gen.next64() & 0xff]++;
    std::vector<double> expected(256, 1.0);
    EXPECT_TRUE(util::chiSquareConsistent(counts, expected));
}

TEST(Lfsr, OutputByteUniformityChiSquare)
{
    // The fixed maximal LFSR is linear but its byte stream over one
    // period is balanced enough to pass a coarse 16-bin test.
    Lfsr lfsr = Lfsr::makeLfsr19(12345);
    std::vector<std::uint64_t> counts(16, 0);
    for (int i = 0; i < 16 * 3000; ++i)
        counts[lfsr.stepBits(4)]++;
    std::vector<double> expected(16, 1.0);
    EXPECT_TRUE(util::chiSquareConsistent(counts, expected));
}

TEST(Entropy, KnownValues)
{
    EXPECT_DOUBLE_EQ(shannonEntropyBits({1.0, 1.0}), 1.0);
    EXPECT_DOUBLE_EQ(shannonEntropyBits({1, 1, 1, 1}), 2.0);
    EXPECT_DOUBLE_EQ(shannonEntropyBits({1.0, 0.0}), 0.0);
    EXPECT_NEAR(shannonEntropyBits({3.0, 1.0}), 0.8112781245, 1e-9);
}

TEST(Entropy, EmpiricalCountsMatch)
{
    EXPECT_DOUBLE_EQ(empiricalEntropyBits({500, 500}), 1.0);
    EXPECT_DOUBLE_EQ(empiricalEntropyBits({10, 0, 0}), 0.0);
}

} // namespace
