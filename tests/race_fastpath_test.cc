/**
 * @file
 * Tests for the alias-table categorical race fast path.
 *
 * The statistical core compares three things against one another: a
 * brute-force enumeration of the exact joint (winner, tie, no-fire)
 * law (independent of the production code: std::exp and explicit
 * subset sums), the literal race, and the fast-path draws — each at
 * >= 1e6 draws under a 0.1% chi-square.  Around that: the degenerate
 * inputs the table builder must survive (cut-off labels, a single
 * firing label, all-zero rows, one-bin windows), cross-temperature
 * entry sharing (the packed lane builds its class tables uncached,
 * the general lane caches them), scalar-vs-row bit-exactness of the
 * fast-path samplers, shared packed tables sized to their working
 * set (no draw depends on a table's history or size), rate bindings
 * (one per temperature for a run's clones, one in all for a sampler
 * nobody cloned), and the RaceMode::Auto selection rules.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <memory>
#include <optional>
#include <vector>

#include "apps/stereo.hh"
#include "core/energy_to_lambda.hh"
#include "core/race_fastpath.hh"
#include "core/rate_binding.hh"
#include "core/sampler_rsu.hh"
#include "core/ttf_race.hh"
#include "img/synthetic.hh"
#include "mrf/checkerboard.hh"
#include "obs/metrics.hh"
#include "rng/rng.hh"
#include "util/chi_square.hh"

namespace {

using namespace retsim;
using namespace retsim::core;

RsuConfig
binnedCfg(TieBreak tie, unsigned time_bits = 5,
          TruncationPolicy policy = TruncationPolicy::InfiniteTtf)
{
    RsuConfig cfg = RsuConfig::newDesign();
    cfg.tieBreak = tie;
    cfg.timeBits = time_bits;
    cfg.truncationPolicy = policy;
    return cfg;
}

/**
 * Exact joint law by brute force, independent of the production
 * builder: per label f(b)/G(b) from std::exp, then for every bin an
 * explicit sum over all subsets S of labels landing exactly in that
 * bin, with the arbiter applied to S.  Category k = 2*winner + tie,
 * last category = no label fired.
 */
std::vector<double>
bruteForceJoint(const std::vector<double> &rates, unsigned t_bins,
                bool drop, TieBreak tie)
{
    const std::size_t m = rates.size();
    std::vector<std::vector<double>> f(m), g(m);
    for (std::size_t i = 0; i < m; ++i) {
        f[i].assign(t_bins, 0.0);
        g[i].assign(t_bins, 1.0);
        if (!(rates[i] > 0.0))
            continue;
        for (unsigned b = 1; b <= t_bins; ++b) {
            const double e_prev = std::exp(-rates[i] * (b - 1));
            const double e_cur = std::exp(-rates[i] * b);
            if (b < t_bins || drop) {
                f[i][b - 1] = e_prev - e_cur;
                g[i][b - 1] = e_cur;
            } else {
                f[i][b - 1] = e_prev;
                g[i][b - 1] = 0.0;
            }
        }
    }
    std::vector<double> joint(2 * m + 1, 0.0);
    for (unsigned b = 1; b <= t_bins; ++b) {
        for (std::uint32_t mask = 1; mask < (1u << m); ++mask) {
            double p = 1.0;
            for (std::size_t i = 0; i < m; ++i)
                p *= (mask >> i) & 1 ? f[i][b - 1] : g[i][b - 1];
            if (p == 0.0)
                continue;
            const int size = std::popcount(mask);
            const bool tied = size > 1;
            if (tie == TieBreak::First) {
                const int w = std::countr_zero(mask);
                joint[2 * w + tied] += p;
            } else if (tie == TieBreak::Last) {
                const int w = 31 - std::countl_zero(mask);
                joint[2 * w + tied] += p;
            } else {
                for (std::size_t i = 0; i < m; ++i)
                    if ((mask >> i) & 1)
                        joint[2 * i + tied] += p / size;
            }
        }
    }
    double nofire = 1.0;
    for (std::size_t i = 0; i < m; ++i)
        nofire *= g[i][t_bins - 1];
    joint[2 * m] = nofire;
    return joint;
}

/** Categorize a RaceOutcome against the bruteForceJoint layout. */
std::size_t
categorize(const RaceOutcome &oc, std::size_t m)
{
    if (oc.winner < 0)
        return 2 * m;
    return 2 * static_cast<std::size_t>(oc.winner) + (oc.tie ? 1 : 0);
}

/**
 * Drive the fast path directly: bind an identity-style rate table
 * where entry i holds rates[i], and race one pixel per call whose
 * energies 0..m-1 quantize (top = m - 1, no minimum subtracted) so
 * that label i resolves to rates[i].
 */
std::vector<std::uint64_t>
fastPathHistogram(const std::vector<double> &rates,
                  const RsuConfig &cfg, std::size_t draws,
                  std::uint64_t seed)
{
    const std::size_t m = rates.size();
    RaceFastPath fast(cfg);
    fast.bindRateTable(rates);
    std::vector<float> e(m);
    for (std::size_t i = 0; i < m; ++i)
        e[i] = static_cast<float>(i);
    const double top = static_cast<double>(m - 1);
    rng::Xoshiro256 gen(seed);
    std::vector<std::uint64_t> hist(2 * m + 1, 0);
    double u[4];
    for (std::size_t d = 0; d < draws; ++d) {
        for (unsigned k = 0; k < fast.drawsPerPixel(); ++k)
            u[k] = gen.nextDouble();
        RaceOutcome oc;
        fast.raceEnergiesRow(e.data(), top, false, 1, m, u, &oc);
        ++hist[categorize(oc, m)];
    }
    return hist;
}

std::vector<std::uint64_t>
literalHistogram(const std::vector<double> &rates, const RsuConfig &cfg,
                 std::size_t draws, std::uint64_t seed)
{
    const std::size_t m = rates.size();
    rng::Xoshiro256 gen(seed);
    std::vector<std::uint64_t> hist(2 * m + 1, 0);
    for (std::size_t d = 0; d < draws; ++d)
        ++hist[categorize(runTtfRace(rates, cfg, gen), m)];
    return hist;
}

// --------------------------------------------------- statistical core

class RaceFastPathChiSquare
    : public ::testing::TestWithParam<TieBreak>
{};

TEST_P(RaceFastPathChiSquare, MatchesExactJointLawAtOneMillionDraws)
{
    const TieBreak tie = GetParam();
    const RsuConfig cfg = binnedCfg(tie);
    // Moderate rates over a 32-bin window: every category (wins,
    // ties, for Random also the shared-rate class) gets real mass.
    const std::vector<double> rates = {0.35, 0.8, 1.7, 0.35};
    const std::vector<double> joint = bruteForceJoint(
        rates, cfg.tMaxBins(),
        cfg.truncationPolicy == TruncationPolicy::InfiniteTtf, tie);
    const std::size_t kDraws = 1u << 20; // >= 1e6
    const auto fast = fastPathHistogram(rates, cfg, kDraws, 101);
    const auto literal = literalHistogram(rates, cfg, kDraws, 202);
    EXPECT_TRUE(util::chiSquareConsistent(fast, joint));
    EXPECT_TRUE(util::chiSquareConsistent(literal, joint));
}

INSTANTIATE_TEST_SUITE_P(AllTieBreaks, RaceFastPathChiSquare,
                         ::testing::Values(TieBreak::Random,
                                           TieBreak::First,
                                           TieBreak::Last));

TEST(RaceFastPathChiSquareClamp, ClampPolicyMatchesExactLaw)
{
    // ClampToLastBin folds the tail into the final bin, which is
    // where most of its ties come from; exercise it explicitly.
    const RsuConfig cfg = binnedCfg(TieBreak::Random, 3,
                                    TruncationPolicy::ClampToLastBin);
    const std::vector<double> rates = {0.12, 0.05, 0.3};
    const std::vector<double> joint =
        bruteForceJoint(rates, cfg.tMaxBins(), false, cfg.tieBreak);
    const std::size_t kDraws = 1u << 20;
    const auto fast = fastPathHistogram(rates, cfg, kDraws, 303);
    const auto literal = literalHistogram(rates, cfg, kDraws, 404);
    EXPECT_TRUE(util::chiSquareConsistent(fast, joint));
    EXPECT_TRUE(util::chiSquareConsistent(literal, joint));
}

TEST(RaceFastPathChiSquareWide, GeneralLaneMatchesExactLawRandomTie)
{
    // 18 labels exceed the packed lane's 16-label ceiling, so the
    // dispatcher falls through to the general (vector-keyed) lane;
    // Random tie-break drives its alias draw end to end.  A 3-bit
    // window keeps the brute-force subset enumeration (2^18 masks
    // per bin) tractable, and the zero-rate labels check cut-off
    // handling in the general table builder too.
    const RsuConfig cfg = binnedCfg(TieBreak::Random, 3);
    std::vector<double> rates(18, 0.0);
    for (std::size_t i = 0; i < rates.size(); ++i)
        rates[i] = i % 3 == 0 ? 0.0 : (i % 3 == 1 ? 0.2 : 0.75);
    const std::vector<double> joint = bruteForceJoint(
        rates, cfg.tMaxBins(),
        cfg.truncationPolicy == TruncationPolicy::InfiniteTtf,
        cfg.tieBreak);
    const std::size_t kDraws = 1u << 20;
    const auto fast = fastPathHistogram(rates, cfg, kDraws, 505);
    EXPECT_TRUE(util::chiSquareConsistent(fast, joint));
}

TEST(RaceFastPathFloat, CdfInversionMatchesRateRatios)
{
    const std::vector<double> rates = {1.0, 0.0, 2.0, 5.0};
    double total = 0.0;
    for (double r : rates)
        total += r;
    rng::Xoshiro256 gen(7);
    std::vector<std::uint64_t> wins(rates.size(), 0);
    const std::size_t kDraws = 1u << 20;
    // The firing set raceFloat takes: the positive rates in label
    // order and their labels.
    std::vector<double> firing;
    std::vector<std::uint32_t> labels;
    for (std::size_t i = 0; i < rates.size(); ++i) {
        if (rates[i] > 0.0) {
            firing.push_back(rates[i]);
            labels.push_back(static_cast<std::uint32_t>(i));
        }
    }
    for (std::size_t d = 0; d < kDraws; ++d) {
        const RaceOutcome oc = RaceFastPath::raceFloat(
            firing.data(), labels.data(), firing.size(),
            gen.nextDouble());
        ASSERT_GE(oc.winner, 0);
        EXPECT_FALSE(oc.tie);
        EXPECT_EQ(oc.contenders, 3u); // cut-off label excluded
        ++wins[static_cast<std::size_t>(oc.winner)];
    }
    std::vector<double> expected;
    for (double r : rates)
        expected.push_back(r / total);
    EXPECT_TRUE(util::chiSquareConsistent(wins, expected));
}

// ------------------------------------------------------ degenerate rows

TEST(RaceFastPathDegenerate, CutOffLabelsNeverWin)
{
    const RsuConfig cfg = binnedCfg(TieBreak::Random);
    const std::vector<double> rates = {0.0, 0.9, 0.0, 1.4};
    const auto hist = fastPathHistogram(rates, cfg, 20000, 11);
    EXPECT_EQ(hist[0], 0u); // label 0 (rate 0) never wins...
    EXPECT_EQ(hist[1], 0u);
    EXPECT_EQ(hist[4], 0u); // ...nor label 2
    EXPECT_EQ(hist[5], 0u);
    EXPECT_GT(hist[2] + hist[3], 0u);
    EXPECT_GT(hist[6] + hist[7], 0u);
}

TEST(RaceFastPathDegenerate, SingleFiringLabelAlwaysWinsUntied)
{
    const RsuConfig cfg = binnedCfg(TieBreak::Random);
    const std::vector<double> rates = {0.0, 2.5, 0.0};
    const auto hist = fastPathHistogram(rates, cfg, 20000, 13);
    // Winner is label 1 or no-fire; a lone racer can never tie.
    EXPECT_EQ(hist[0] + hist[1] + hist[3] + hist[4] + hist[5], 0u);
    EXPECT_GT(hist[2], 0u);
}

TEST(RaceFastPathDegenerate, AllZeroRowNeverFires)
{
    for (TieBreak tie :
         {TieBreak::Random, TieBreak::First, TieBreak::Last}) {
        const RsuConfig cfg = binnedCfg(tie);
        const std::vector<double> rates = {0.0, 0.0, 0.0};
        const auto hist = fastPathHistogram(rates, cfg, 1000, 17);
        EXPECT_EQ(hist[2 * rates.size()], 1000u)
            << "tie mode " << toString(tie);
    }
}

TEST(RaceFastPathDegenerate, OneBitWindowMatchesExactLaw)
{
    // timeBits = 1 is the smallest legal window (two bins); with a
    // clamping policy the second bin absorbs the whole tail, with the
    // drop policy most draws never fire.
    for (TruncationPolicy policy :
         {TruncationPolicy::InfiniteTtf,
          TruncationPolicy::ClampToLastBin}) {
        const RsuConfig cfg = binnedCfg(TieBreak::Random, 1, policy);
        ASSERT_EQ(cfg.tMaxBins(), 2u);
        const std::vector<double> rates = {0.4, 1.1};
        const std::vector<double> joint = bruteForceJoint(
            rates, 2, policy == TruncationPolicy::InfiniteTtf,
            cfg.tieBreak);
        const std::size_t kDraws = 1u << 18;
        const auto fast = fastPathHistogram(rates, cfg, kDraws, 19);
        const auto literal =
            literalHistogram(rates, cfg, kDraws, 23);
        EXPECT_TRUE(util::chiSquareConsistent(fast, joint));
        EXPECT_TRUE(util::chiSquareConsistent(literal, joint));
    }
}

// --------------------------------------------------------- table cache

TEST(RaceTableCache, SharesTablesAcrossTemperatures)
{
    // A flat energy vector scales to all-zero energies under
    // decay-rate scaling, so every temperature maps it to the same
    // lambda-code vector and therefore the same canonical table key.
    RaceTableCache &cache = RaceTableCache::global();
    cache.clear();
    RsuConfig cfg = RsuConfig::newDesign();
    cfg.raceMode = RaceMode::FastPath;
    const std::vector<float> energies = {3.0f, 3.0f, 3.0f, 3.0f};
    rng::Xoshiro256 gen(29);

    RsuSampler a(cfg);
    ASSERT_TRUE(a.usingFastPath());
    a.sample(energies, 10.0, 0, gen);
    EXPECT_EQ(cache.misses(), 1u);
    a.sample(energies, 1.0, 0, gen); // same packed entry, no lookup
    EXPECT_EQ(cache.misses(), 1u);

    // At T = 0.25 every nonzero energy is cut off, so b binds the
    // alphabet {0, lambda_max}: another packed table, whose fill
    // builds its own class table.  A packed entry copies its class
    // table in, so the cache keeps none of them.
    RsuSampler b(cfg);
    b.sample(energies, 0.25, 0, gen);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.size(), 0u);
}

TEST(RaceTableCache, GeneralLaneCachesItsClassTables)
{
    // 20 labels exceed the packed lane's 16, so a Random-tie fast-path
    // sampler draws through the general lane, which reads a class
    // table for every interior pixel.  Those tables stay cached: a
    // second sampler drawing the same row builds none.
    RaceTableCache &cache = RaceTableCache::global();
    cache.clear();
    RsuConfig cfg = RsuConfig::newDesign();
    cfg.raceMode = RaceMode::FastPath;
    ASSERT_EQ(cfg.tieBreak, TieBreak::Random);
    const std::size_t n = 64, m = 20;
    std::vector<float> e(n * m);
    rng::Xoshiro256 egen(61);
    for (float &x : e)
        x = static_cast<float>(egen.nextBounded(40));
    std::vector<int> cur(n, 0), first(n), second(n);
    rng::Xoshiro256 g1(62), g2(62);

    RsuSampler a(cfg);
    a.sampleRow(e, static_cast<int>(m), 4.0, cur, first, g1);
    ASSERT_FALSE(a.rateBinding()->packedOk && m <= 16);
    const std::uint64_t built = cache.misses();
    EXPECT_GT(built, 0u);
    EXPECT_EQ(cache.size(), built);
    // Every class-table read of a's row built its table or hit one a
    // built earlier in the row.
    const std::uint64_t hits = cache.hits();
    const std::uint64_t reads = built + hits;

    RsuSampler b(cfg);
    b.sampleRow(e, static_cast<int>(m), 4.0, cur, second, g2);
    EXPECT_EQ(second, first);
    EXPECT_EQ(cache.misses(), built);
    EXPECT_EQ(cache.size(), built);
    // b's row makes the same reads, and every one is a counted hit.
    EXPECT_EQ(cache.hits() - hits, reads);
}

TEST(RaceTableCache, BuildFromKeyRoundTripsThroughGet)
{
    RaceTableCache &cache = RaceTableCache::global();
    cache.clear();
    RsuConfig cfg = binnedCfg(TieBreak::Random);
    RaceTableCache::Key key;
    key.push_back(RaceTableCache::modeWord(cfg));
    // Two labels at rate 0.5 and one at 1.25.
    key.push_back(std::bit_cast<std::uint64_t>(0.5));
    key.push_back(2);
    key.push_back(std::bit_cast<std::uint64_t>(1.25));
    key.push_back(1);
    const auto cached = cache.get(key);
    const RaceTable direct = RaceTableCache::buildFromKey(key);
    ASSERT_EQ(cached->pmf.size(), direct.pmf.size());
    ASSERT_EQ(direct.pmf.size(), 4u); // (class, tie) only, no no-fire
    for (std::size_t i = 0; i < direct.pmf.size(); ++i)
        EXPECT_EQ(cached->pmf[i], direct.pmf[i]);
    // The unnormalized mass is the exact conditioning probability:
    // P(>= 1 label shares the minimum bin) = 1 - prod e^{-rate}.
    double sum = 0.0;
    for (double p : direct.pmf)
        sum += p;
    EXPECT_NEAR(sum, 1.0 - std::exp(-0.5) * std::exp(-0.5) *
                              std::exp(-1.25),
                1e-12);
    EXPECT_EQ(cache.get(key).get(), cached.get()); // second get hits
    EXPECT_EQ(cache.hits(), 1u);
}

// ----------------------------------------- sampler-level bit-exactness

void
expectScalarRowIdentical(const RsuConfig &cfg, std::uint64_t seed)
{
    const std::size_t n = 96, m = 5;
    std::vector<float> energies(n * m);
    rng::Xoshiro256 egen(seed);
    for (float &e : energies)
        e = static_cast<float>(egen.nextDouble() * 20.0);

    RsuSampler s1(cfg), s2(cfg);
    ASSERT_TRUE(s1.usingFastPath());
    rng::Xoshiro256 h1(seed + 2), h2(seed + 2);
    std::vector<int> cur(n, 1), out_scalar(n, -1), out_row(n, -1);
    for (double temp : {8.0, 0.9}) { // includes a table rebind
        for (std::size_t p = 0; p < n; ++p)
            out_scalar[p] = s1.sample(
                std::span<const float>(energies).subspan(p * m, m),
                temp, cur[p], h1);
        s2.sampleRow(energies, static_cast<int>(m), temp, cur,
                     out_row, h2);
        EXPECT_EQ(out_scalar, out_row) << cfg.describe();
    }
    EXPECT_EQ(s1.stats().noSample, s2.stats().noSample);
    EXPECT_EQ(s1.stats().ties, s2.stats().ties);
}

TEST(RaceFastPathSampler, ScalarAndRowBitIdenticalRandomTie)
{
    RsuConfig cfg = RsuConfig::newDesign();
    cfg.raceMode = RaceMode::FastPath;
    expectScalarRowIdentical(cfg, 31);
}

TEST(RaceFastPathSampler, ScalarAndRowBitIdenticalFirstTie)
{
    RsuConfig cfg = RsuConfig::newDesign();
    cfg.tieBreak = TieBreak::First;
    cfg.raceMode = RaceMode::FastPath;
    expectScalarRowIdentical(cfg, 37);
}

TEST(RaceFastPathSampler, ScalarAndRowBitIdenticalFloatTime)
{
    RsuConfig cfg = RsuConfig::newDesign();
    cfg.timeQuant = TimeQuant::Float;
    cfg.raceMode = RaceMode::FastPath;
    expectScalarRowIdentical(cfg, 41);
}

// ------------------------------------------------ shared table sizing

/** 8-bit quantized energy -> rate table decaying in bands, like the
 *  quantized designs' tables: six firing rates, then a cut-off band.
 *  @p split adds a seventh rate, growing the bound alphabet. */
std::vector<double>
bandedRates(bool split)
{
    std::vector<double> t(256, 0.0);
    for (std::size_t e = 0; e < 200; ++e)
        t[e] = 0.32 / static_cast<double>(
                          1u << std::min<std::size_t>(e / 32, 5));
    if (split)
        for (std::size_t e = 180; e < 200; ++e)
            t[e] = 0.005;
    return t;
}

TEST(RaceFastPathMemo, HistoryAndGrowthNeverChangeADraw)
{
    // One instance fills ~1500 distinct count words per bind, so its
    // shared packed table doubles from 256 slots at least three
    // times; a rebind that grows the alphabet moves it to another
    // table, and a subset rebind keeps it.  Every pixel must draw
    // what a fresh instance replaying the same binds draws, one pixel
    // at a time on the same uniforms, over emptied tables.
    constexpr std::size_t kM = 16, kN = 32, kRows = 48;
    constexpr double kTop = 255.0;
    // A packed slot is two cache lines; 2048 slots is three doublings
    // of the initial 256.
    constexpr std::size_t kThreeDoublings = 2048 * 128;
    RaceTableCache &cache = RaceTableCache::global();
    const std::vector<std::vector<double>> binds = {
        bandedRates(false), bandedRates(true), bandedRates(false)};
    for (TruncationPolicy policy : {TruncationPolicy::InfiniteTtf,
                                    TruncationPolicy::ClampToLastBin}) {
        for (TieBreak tie : {TieBreak::Random, TieBreak::First}) {
            const RsuConfig cfg = binnedCfg(tie, 5, policy);
            const std::size_t draws = RaceFastPath(cfg).drawsPerPixel();
            // Inputs of every row of every bind; odd rows are drawn
            // in two calls, so a row also crosses a call boundary.
            const std::size_t rows = binds.size() * kRows;
            rng::Xoshiro256 gen(43);
            std::vector<float> e(rows * kN * kM);
            std::vector<double> u(rows * kN * draws);
            for (float &x : e)
                x = static_cast<float>(gen.nextBounded(256));
            for (double &x : u)
                x = gen.nextDouble();
            auto race = [&](RaceFastPath &fp, std::size_t row,
                            std::size_t p0, std::size_t n,
                            RaceOutcome *out) {
                const float *ep = e.data() + (row * kN + p0) * kM;
                const double *up = u.data() + (row * kN + p0) * draws;
                const std::size_t head = row % 2 == 0 ? n : n / 2;
                fp.raceEnergiesRow(ep, kTop, false, head, kM, up, out);
                fp.raceEnergiesRow(ep + head * kM, kTop, false, n - head,
                                   kM, up + head * draws, out + head);
            };

            std::vector<RaceOutcome> ref(rows * kN);
            for (std::size_t row = 0; row < rows; ++row) {
                cache.clear();
                for (std::size_t p = 0; p < kN; ++p) {
                    RaceFastPath fresh(cfg);
                    for (std::size_t b = 0; b <= row / kRows; ++b)
                        fresh.bindRateTable(binds[b]);
                    race(fresh, row, p, 1, &ref[row * kN + p]);
                }
            }

            cache.clear();
            RaceFastPath warm(cfg);
            std::vector<RaceOutcome> got(kN);
            std::size_t mismatches = 0;
            for (std::size_t row = 0; row < rows; ++row) {
                const std::size_t phase = row / kRows;
                if (row % kRows == 0)
                    warm.bindRateTable(binds[phase]);
                race(warm, row, 0, kN, got.data());
                for (std::size_t p = 0; p < kN; ++p) {
                    const RaceOutcome &r = ref[row * kN + p];
                    if (got[p].winner != r.winner || got[p].tie != r.tie)
                        ++mismatches;
                }
                if (row % kRows == kRows - 1 &&
                    (phase == 0 || phase + 1 == binds.size())) {
                    EXPECT_GE(cache.packedBytes(), kThreeDoublings)
                        << cfg.toString() << " phase " << phase;
                }
            }
            EXPECT_EQ(mismatches, 0u)
                << cfg.toString() << ": " << mismatches << " of "
                << rows * kN << " draws depended on the tables' history";
        }
    }
}

TEST(RaceFastPathMemo, StereoAnnealFitsInOneMebibyte)
{
    // A 96-sweep fast-path anneal of a 128x96, 16-label stereo problem
    // touches a few thousand count words; the shared packed tables
    // sized to that working set grow by under 1 MiB (the fixed-size
    // per-sampler memos held 8.7 MiB).  A striped rerun's 16 clones
    // hold no memo of their own: they probe the same tables, so the
    // whole footprint still fits that MiB, and the table_bytes gauge
    // reports it.
    img::StereoSceneSpec spec;
    spec.width = 128;
    spec.height = 96;
    spec.numLabels = 16;
    const mrf::MrfProblem problem =
        apps::buildStereoProblem(img::makeStereoScene(spec, 18));
    RaceTableCache &cache = RaceTableCache::global();
    cache.clear();
    const std::size_t empty = cache.packedBytes();
    RsuConfig cfg = RsuConfig::newDesign();
    cfg.raceMode = RaceMode::FastPath;
    mrf::SolverConfig scfg = apps::defaultStereoSolver(96, 1);
    {
        RsuSampler sampler(cfg);
        mrf::CheckerboardGibbsSolver(scfg).run(problem, sampler);
    }
    const std::size_t serial = cache.packedBytes() - empty;
    EXPECT_GT(serial, 0u);
    EXPECT_LE(serial, std::size_t{1} << 20);
    scfg.stripes = 16;
    {
        RsuSampler sampler(cfg);
        mrf::CheckerboardGibbsSolver(scfg).run(problem, sampler);
    }
    EXPECT_LE(cache.packedBytes() - empty, std::size_t{1} << 20);
    obs::Registry &reg = obs::Registry::global();
    EXPECT_EQ(reg.gaugeValue(reg.gauge("core.race_fastpath.table_bytes")),
              static_cast<double>(cache.packedBytes()));
    // Every draw took the packed lane, whose class tables live only
    // inside packed entries: the MiB above is the whole footprint.
    EXPECT_GT(cache.misses(), 0u);
    EXPECT_EQ(cache.size(), 0u);
}

// ------------------------------------------- branch-free draw helpers

TEST(RaceFastPathDraw, SelectBitAndAliasPickMatchLoopForms)
{
    // selectBit16 against the loop it replaced (drop the lowest set
    // bit rank times, then take the lowest), over every 16-bit mask
    // and every rank below its popcount.
    std::size_t checked = 0;
    for (std::uint32_t mask = 1; mask < 0x10000u; ++mask) {
        const int pool = std::popcount(mask);
        for (int rank = 0; rank < pool; ++rank) {
            std::uint32_t loop = mask;
            for (int r = rank; r > 0; --r)
                loop &= loop - 1;
            ASSERT_EQ(selectBit16(mask, static_cast<std::uint32_t>(rank)),
                      std::countr_zero(loop))
                << "mask " << mask << " rank " << rank;
            ++checked;
        }
    }
    EXPECT_EQ(checked, std::size_t{16} << 15); // sum of popcounts

    // aliasPick against the branch it replaced, at and around the
    // float thresholds a PackedRaceEntry stores, for every column
    // and alias of a 16-outcome table.
    const float probs[] = {0.0f, 1e-7f, 0.25f, 0.5f, 0.75f,
                           std::nextafter(1.0f, 0.0f), 1.0f};
    for (const float prob : probs) {
        const double p = static_cast<double>(prob);
        const double fracs[] = {0.0,
                                std::nextafter(p, 0.0),
                                p,
                                std::nextafter(p, 2.0),
                                0.5,
                                std::nextafter(1.0, 0.0)};
        for (const double frac : fracs) {
            if (frac < 0.0)
                continue;
            for (std::size_t j = 0; j < 16; ++j)
                for (std::size_t alias = 0; alias < 16; ++alias)
                    ASSERT_EQ(aliasPick(frac, prob, j, alias),
                              frac < prob ? j : alias)
                        << "frac " << frac << " prob " << prob;
        }
    }
}

// ------------------------------------------- one binding per temperature

TEST(RateBinding, FiringBoundIsThePositivePrefix)
{
    // Over every rate-table shape the apps' anneals bind, the table's
    // positive entries form a prefix, and firingBound is its length:
    // the literal draw's firing test (index < firingBound) keeps
    // exactly the labels with a positive rate.  Without cut-off a
    // quantized lambda never reaches zero, so every label fires.
    struct Anneal
    {
        double t0, tEnd;
    };
    // defaultDenoisingSolver, defaultMotionSolver,
    // defaultSegmentationSolver and defaultStereoSolver.
    const Anneal anneals[] = {{24.0, 0.6}, {40.0, 0.8}, {24.0, 1.0},
                              {48.0, 0.8}};
    std::size_t bindings = 0, partial = 0;
    for (const RsuConfig &preset :
         {RsuConfig::newDesign(), RsuConfig::previousDesign()}) {
        for (LambdaQuant lq : {LambdaQuant::Integer, LambdaQuant::Pow2,
                               LambdaQuant::Float}) {
            for (bool cutoff : {false, true}) {
                for (bool scaling : {false, true}) {
                    for (unsigned bits : {3u, 5u, 8u}) {
                        RsuConfig cfg = preset;
                        cfg.lambdaQuant = lq;
                        cfg.probabilityCutoff = cutoff;
                        cfg.decayRateScaling = scaling;
                        cfg.energyBits = bits;
                        RateBindingCache handle(cfg, false);
                        for (const Anneal &a : anneals) {
                            mrf::AnnealingSchedule sched;
                            sched.t0 = a.t0;
                            sched.tEnd = a.tEnd;
                            sched.sweeps = 32;
                            for (int s = 0; s < sched.sweeps; ++s) {
                                const double t = sched.temperature(s);
                                std::optional<LambdaLut> lut;
                                if (lq != LambdaQuant::Float)
                                    lut.emplace(cfg, t);
                                const auto b = handle.bind(
                                    t, lut ? &*lut : nullptr, nullptr);
                                const std::vector<double> &table =
                                    b->rateTable;
                                std::size_t prefix = 0;
                                while (prefix < table.size() &&
                                       table[prefix] > 0.0)
                                    ++prefix;
                                ASSERT_EQ(b->firingBound, prefix)
                                    << cfg.describe() << " T=" << t;
                                for (std::size_t i = prefix;
                                     i < table.size(); ++i)
                                    ASSERT_EQ(table[i], 0.0)
                                        << cfg.describe() << " T=" << t
                                        << " entry " << i;
                                if (!cutoff &&
                                    lq != LambdaQuant::Float) {
                                    ASSERT_EQ(prefix, table.size());
                                }
                                ++bindings;
                                partial += prefix < table.size();
                            }
                        }
                    }
                }
            }
        }
    }
    EXPECT_EQ(bindings, 2u * 3 * 2 * 2 * 3 * 4 * 32);
    EXPECT_GT(partial, 0u); // cut-off really shortens some tables
}

TEST(RateBinding, ClonesShareOneBindingPerTemperature)
{
    // Sixteen clones drawing at one temperature hold one binding
    // object: the first builds it, the other fifteen hit it.
    RsuConfig cfg = RsuConfig::newDesign();
    cfg.raceMode = RaceMode::FastPath;
    RsuSampler parent(cfg);
    std::vector<std::unique_ptr<mrf::LabelSampler>> clones;
    for (int k = 0; k < 16; ++k)
        clones.push_back(parent.clone(static_cast<std::uint64_t>(k)));
    const std::size_t n = 8, m = 16;
    std::vector<float> e(n * m);
    rng::Xoshiro256 gen(5);
    for (float &x : e)
        x = static_cast<float>(gen.nextBounded(200));
    std::vector<int> cur(n, 0), out(n);
    for (const double t : {6.0, 2.5}) {
        const std::uint64_t builds = parent.rateBindings().builds();
        const std::uint64_t hits = parent.rateBindings().hits();
        const RateBinding *first = nullptr;
        for (auto &c : clones) {
            c->sampleRow(e, static_cast<int>(m), t, cur, out, gen);
            const auto &rsu = static_cast<const RsuSampler &>(*c);
            ASSERT_TRUE(rsu.rateBinding());
            if (!first)
                first = rsu.rateBinding().get();
            EXPECT_EQ(rsu.rateBinding().get(), first) << "T=" << t;
        }
        EXPECT_EQ(parent.rateBindings().builds() - builds, 1u);
        EXPECT_EQ(parent.rateBindings().hits() - hits, 15u);
    }
}

TEST(RateBinding, UnsharedHandleKeepsOneBinding)
{
    // A sampler nobody cloned is its handle's only binder, so the
    // handle keeps just the binding in use: climbing a ladder of
    // distinct rate tables frees each rung's binding at the next
    // rebind, in either race mode.  Once clone() shares the handle it
    // keeps its recent bindings for the clones again.
    for (const RaceMode mode : {RaceMode::Race, RaceMode::FastPath}) {
        RsuConfig cfg = RsuConfig::newDesign();
        cfg.raceMode = mode;
        const std::size_t n = 16, m = 16;
        std::vector<float> e(n * m);
        rng::Xoshiro256 gen(9);
        for (float &x : e)
            x = static_cast<float>(gen.nextBounded(200));
        std::vector<int> cur(n, 0), out(n);
        RsuSampler sampler(cfg);
        std::weak_ptr<const RateBinding> previous;
        std::vector<double> previous_table;
        for (const double t : {9.0, 6.0, 4.0, 2.5, 1.5, 1.0, 0.6}) {
            sampler.sampleRow(e, static_cast<int>(m), t, cur, out, gen);
            const std::shared_ptr<const RateBinding> &b =
                sampler.rateBinding();
            ASSERT_TRUE(b);
            ASSERT_NE(b->rateTable, previous_table) << "T=" << t;
            EXPECT_TRUE(previous.expired()) << "T=" << t;
            previous = b;
            previous_table = b->rateTable;
        }
        EXPECT_EQ(sampler.rateBindings().hits(), 0u);

        const std::unique_ptr<mrf::LabelSampler> clone = sampler.clone(0);
        sampler.sampleRow(e, static_cast<int>(m), 0.4, cur, out, gen);
        ASSERT_NE(sampler.rateBinding()->rateTable, previous_table);
        EXPECT_FALSE(previous.expired())
            << "a shared handle keeps its recent bindings";
    }
}

TEST(RateBinding, AlphabetUnionDecidesTheLaneAsBefore)
{
    // previousDesign() converts with integer lambda codes, so a
    // cooling ladder adds codes rung by rung and the alphabet a
    // sampler has bound so far grows past the packed lane's 8 classes.
    // At every rung the sampler's binding must hold the alphabet the
    // union rule restated here gives (union with the new table's
    // distinct rates, reset to them past 64), take the lane that
    // alphabet selects, and draw the bytes a binding built over the
    // restated alphabet draws.
    RsuConfig cfg = RsuConfig::previousDesign();
    cfg.raceMode = RaceMode::FastPath;
    ASSERT_TRUE(RaceFastPath::resolve(cfg));
    const std::size_t n = 64, m = 16;
    std::vector<float> e(n * m);
    rng::Xoshiro256 egen(77);
    for (float &x : e)
        x = static_cast<float>(egen.nextBounded(256));
    RsuSampler sampler(cfg);
    rng::Xoshiro256 gen(78), ref_gen(78);
    std::vector<double> alphabet; // restated union so far
    bool saw_packed = false, saw_general = false;
    const std::uint64_t mode_word = RaceTableCache::modeWord(cfg);
    for (const double t : {1000.0, 700.0, 450.0, 300.0, 200.0, 120.0}) {
        const auto lut = LambdaLutCache::global().get(cfg, t);
        std::vector<double> table(std::size_t{1} << cfg.energyBits);
        for (std::size_t q = 0; q < table.size(); ++q)
            table[q] = static_cast<double>(lut->lookup(q)) * cfg.lambda0();
        std::vector<double> distinct = table;
        std::sort(distinct.begin(), distinct.end());
        distinct.erase(std::unique(distinct.begin(), distinct.end()),
                       distinct.end());
        const std::vector<double> incoming = alphabet;
        std::vector<double> merged;
        std::set_union(alphabet.begin(), alphabet.end(), distinct.begin(),
                       distinct.end(), std::back_inserter(merged));
        alphabet = merged.size() <= 64 ? merged : distinct;

        std::vector<int> cur(n, 3), out(n), want(n);
        sampler.sampleRow(e, static_cast<int>(m), t, cur, out, gen);
        const RateBinding &b = *sampler.rateBinding();
        EXPECT_EQ(b.alphabet, alphabet) << "T=" << t;
        EXPECT_EQ(b.packedOk, alphabet.size() <= 8) << "T=" << t;
        (alphabet.size() <= 8 ? saw_packed : saw_general) = true;

        // Reference: the same draw over a binding of the restated
        // incoming alphabet, on the same uniforms.
        RaceFastPath ref(cfg);
        ref.bind(RateBinding::make(table, incoming, &mode_word));
        std::vector<double> u(n * ref.drawsPerPixel());
        ref_gen.fillUniform(u);
        std::vector<RaceOutcome> oc(n);
        ref.raceEnergiesRow(e.data(),
                            static_cast<double>((1u << cfg.energyBits) - 1),
                            cfg.decayRateScaling, n, m, u.data(),
                            oc.data());
        for (std::size_t p = 0; p < n; ++p)
            want[p] = oc[p].winner < 0 ? cur[p] : oc[p].winner;
        EXPECT_EQ(out, want) << "T=" << t;
    }
    EXPECT_TRUE(saw_packed);
    EXPECT_TRUE(saw_general);
}

TEST(RateBinding, StripedStereoAnnealBuildsOneBindingPerTemperature)
{
    // perfbench's stereo16 shape: 128x96, 16 labels, 96 sweeps, 16
    // stripes on 2 threads.  Every clone rebinds at every new
    // temperature (16 binds per temperature), but the run builds at
    // most one binding per distinct temperature, and the labels are
    // the 1-thread run's.
    img::StereoSceneSpec spec;
    spec.width = 128;
    spec.height = 96;
    spec.numLabels = 16;
    const mrf::MrfProblem problem =
        apps::buildStereoProblem(img::makeStereoScene(spec, 3));
    RsuConfig cfg = RsuConfig::newDesign();
    cfg.raceMode = RaceMode::FastPath;
    mrf::SolverConfig scfg = apps::defaultStereoSolver(96, 1);
    std::vector<double> temps;
    for (int s = 0; s < scfg.annealing.sweeps; ++s)
        temps.push_back(scfg.annealing.temperature(s));
    std::sort(temps.begin(), temps.end());
    const std::size_t distinct =
        std::unique(temps.begin(), temps.end()) - temps.begin();

    obs::Registry &reg = obs::Registry::global();
    const obs::MetricId builds = reg.counter("core.rate_binding.builds");
    const obs::MetricId hits = reg.counter("core.rate_binding.hits");
    scfg.stripes = 16;
    scfg.threads = 1;
    RsuSampler one_thread(cfg);
    const img::LabelMap want =
        mrf::CheckerboardGibbsSolver(scfg).run(problem, one_thread);

    scfg.threads = 2;
    const std::uint64_t b0 = reg.counterValue(builds);
    const std::uint64_t h0 = reg.counterValue(hits);
    RsuSampler striped(cfg);
    const img::LabelMap got =
        mrf::CheckerboardGibbsSolver(scfg).run(problem, striped);
    EXPECT_EQ(got.data(), want.data());
    const std::uint64_t built = reg.counterValue(builds) - b0;
    EXPECT_GE(built, 1u);
    EXPECT_LE(built, distinct);
    EXPECT_EQ(built, striped.rateBindings().builds());
    // Each clone binds once per distinct temperature it reaches.
    EXPECT_EQ(built + (reg.counterValue(hits) - h0), 16 * distinct);
}

// -------------------------------------------------------- mode wiring

TEST(RaceModeResolution, AutoPicksFastpathOnlyForExponentialOnlyModes)
{
    RsuConfig cfg = RsuConfig::newDesign(); // binned + Random tie
    cfg.raceMode = RaceMode::Auto;
    // Random tie-break draws a tie-resolution uniform inside the
    // race, so Auto must keep the literal race.
    EXPECT_FALSE(RsuSampler(cfg).usingFastPath());

    cfg.tieBreak = TieBreak::First;
    EXPECT_TRUE(RsuSampler(cfg).usingFastPath());

    cfg = RsuConfig::newDesign();
    cfg.timeQuant = TimeQuant::Float;
    cfg.raceMode = RaceMode::Auto;
    EXPECT_TRUE(RsuSampler(cfg).usingFastPath());

    // Continuous rates defeat the table cache: unsupported, Auto
    // falls back to the race.
    cfg = RsuConfig::newDesign();
    cfg.floatEnergy = true;
    cfg.tieBreak = TieBreak::First;
    cfg.raceMode = RaceMode::Auto;
    EXPECT_FALSE(RsuSampler(cfg).usingFastPath());

    cfg.raceMode = RaceMode::Race;
    EXPECT_FALSE(RsuSampler(cfg).usingFastPath());
}

TEST(RaceModeResolution, ExplicitFastpathOnUnsupportedConfigIsFatal)
{
    RsuConfig cfg = RsuConfig::newDesign();
    cfg.floatEnergy = true;
    cfg.raceMode = RaceMode::FastPath;
    EXPECT_DEATH(RsuSampler sampler(cfg), "unsupported");
}

TEST(RaceModeResolution, ModeRoundTripsThroughConfigStrings)
{
    RsuConfig cfg = RsuConfig::newDesign();
    cfg.raceMode = RaceMode::FastPath;
    EXPECT_EQ(RsuConfig::fromString(cfg.toString()), cfg);
    // Non-default race modes are visible in the sampler name; the
    // default keeps historical names byte-identical.
    EXPECT_NE(cfg.describe().find("fastpath"), std::string::npos);
    cfg.raceMode = RaceMode::Race;
    EXPECT_EQ(cfg.describe().find("race"), std::string::npos);
}

} // namespace
