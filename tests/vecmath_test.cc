/**
 * @file
 * Tests for the SIMD vecmath layer: ULP accuracy of the retsim
 * transcendentals against libm over the input ranges the samplers
 * actually feed them, semantic tests of the fused race kernel against
 * a plain scalar re-statement, and the backend-equivalence contract —
 * the scalar fallback and every backend compiled into this binary
 * (and runnable on this CPU) must produce bit-identical kernel
 * outputs, sampler labels, and RNG consumption.  These tests are what
 * lets CI run a scalar-only build leg beside the default AVX2 build
 * and treat any divergence as a hard failure.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "apps/denoising.hh"
#include "core/sampler_rsu.hh"
#include "core/ttf_race.hh"
#include "img/synthetic.hh"
#include "mrf/checkerboard.hh"
#include "mrf/problem.hh"
#include "rng/rng.hh"
#include "simd/kernels.hh"

namespace {

using namespace retsim;

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Distance in representable doubles (same sign, both finite). */
std::int64_t
ulpDiff(double a, double b)
{
    const auto ia = std::bit_cast<std::int64_t>(a);
    const auto ib = std::bit_cast<std::int64_t>(b);
    return std::abs(ia - ib);
}

/** Restore auto dispatch when a test forces a backend. */
struct BackendGuard
{
    ~BackendGuard() { simd::setBackend("auto"); }
};

// ------------------------------------------------------------------
// ULP accuracy vs libm.  The reproducibility contract is "matches
// retsim vecmath", not "matches std::log", so these are accuracy
// bounds, not equality: the production table-driven vlog measures
// ~2 ulp against libm and the fdlibm-style vexp ~1 ulp; the tests
// allow 8 to stay robust across libm versions.
// ------------------------------------------------------------------

TEST(Vecmath, LogUlpBoundOnUniformDomain)
{
    // The TTF draw domain: fillUniformOpenLow outputs in [2^-53, 1).
    rng::Xoshiro256 gen(11);
    std::vector<double> u(4096);
    gen.fillUniformOpenLow(u);
    u.push_back(0x1.0p-53);            // domain floor
    u.push_back(1.0 - 0x1.0p-53);      // domain ceiling
    u.push_back(0.5);
    for (double v : u)
        EXPECT_LE(ulpDiff(simd::slog(v), std::log(v)), 8) << "u = " << v;
}

TEST(Vecmath, LogUlpBoundAcrossMagnitudes)
{
    // Log-spaced sweep across the whole finite positive range,
    // including denormals (vlogCore rescales them by 2^54).
    std::vector<double> x;
    for (int e = -1074; e <= 1023; e += 3)
        x.push_back(std::ldexp(1.37, e));
    for (double v : x)
        EXPECT_LE(ulpDiff(simd::slog(v), std::log(v)), 8) << "x = " << v;
}

TEST(Vecmath, ExpUlpBoundOnSamplerDomain)
{
    // The sampler exponent domain: gibbsWeightsRow and the
    // lambda-table builds evaluate exp((e_min - e) / T) with 8-bit
    // energies and anneal temperatures down to ~0.5, i.e. exponents
    // in [-512, 0]; sweep wider for margin, into the denormal-result
    // range.
    std::vector<double> x;
    for (double v = -745.0; v <= 32.0; v += 0.37)
        x.push_back(v);
    std::vector<double> out(x.size());
    simd::kernels().expBatch(x.data(), out.data(), x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
        const double ref = std::exp(x[i]);
        if (ref == 0.0)
            EXPECT_LE(out[i], std::numeric_limits<double>::denorm_min())
                << "x = " << x[i];
        else
            EXPECT_LE(ulpDiff(out[i], ref), 8) << "x = " << x[i];
    }
}

TEST(Vecmath, EdgeCasesMatchLibmSemantics)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EQ(simd::slog(0.0), -kInf);
    EXPECT_TRUE(std::isnan(simd::slog(-1.0)));
    EXPECT_EQ(simd::slog(kInf), kInf);
    EXPECT_TRUE(std::isnan(simd::slog(nan)));
    EXPECT_EQ(simd::slog(1.0), 0.0);
    EXPECT_EQ(simd::slog(-0.0), -kInf);

    double ein[5] = {-kInf, kInf, nan, 0.0, -800.0};
    double eout[5];
    simd::kernels().expBatch(ein, eout, 5);
    EXPECT_EQ(eout[0], 0.0);
    EXPECT_EQ(eout[1], kInf);
    EXPECT_TRUE(std::isnan(eout[2]));
    EXPECT_EQ(eout[3], 1.0);
    EXPECT_EQ(eout[4], 0.0);
}

TEST(Vecmath, ScalarHelpersMatchBatchLanes)
{
    // slog/sexp are the same cores at width 1: every element of a
    // batch equals the scalar helper bit for bit, which is what lets
    // scalar samplers and batched rows share one contract.  At rate 1
    // an exponential draw lane is -slog(u), the equality
    // rng::sampleExponential relies on.
    rng::Xoshiro256 gen(12);
    std::vector<double> u(257);
    gen.fillUniformOpenLow(u);
    const std::vector<double> ones(u.size(), 1.0);
    std::vector<double> lg(u.size()), ex(u.size());
    simd::kernels().expDraw(u.data(), ones.data(), lg.data(), u.size());
    for (std::size_t i = 0; i < u.size(); ++i)
        EXPECT_EQ(lg[i], -simd::slog(u[i]));
    simd::kernels().expBatch(lg.data(), ex.data(), lg.size());
    for (std::size_t i = 0; i < lg.size(); ++i)
        EXPECT_EQ(ex[i], simd::sexp(lg[i]));
}

// ------------------------------------------------------------------
// Fused race-kernel semantics vs a plain scalar restatement.
// ------------------------------------------------------------------

/** The expDrawBin contract, restated with branches. */
simd::BinRaceResult
referenceExpDrawBin(const std::vector<double> &u,
                    const std::vector<double> &rates, double t_max,
                    bool drop_truncated, std::vector<double> &bins)
{
    const std::size_t n = u.size();
    bins.resize(n);
    simd::BinRaceResult r;
    double best = kInf;
    for (std::size_t i = 0; i < n; ++i) {
        const double t = -simd::slog(u[i]) / rates[i];
        double bin;
        if (t < t_max)
            bin = std::floor(t) + 1.0;
        else
            bin = drop_truncated ? kInf : t_max;
        bins[i] = bin;
        if (bin < kInf)
            ++r.contenders;
        if (bin < best) {
            best = bin;
            r.first = r.last = static_cast<std::uint32_t>(i);
            r.tied = 1;
        } else if (bin == best && best < kInf) {
            r.last = static_cast<std::uint32_t>(i);
            ++r.tied;
        }
    }
    if (!(best < kInf))
        return simd::BinRaceResult{};
    r.bestBin = best;
    return r;
}

TEST(Vecmath, ExpDrawBinMatchesScalarRestatement)
{
    rng::Xoshiro256 gen(21);
    for (int trial = 0; trial < 200; ++trial) {
        // The first trials hold a lone contender (the early-out).
        const std::size_t n = trial < 24 ? 1 : 1 + gen.nextBounded(40);
        const double t_max = 1.0 + static_cast<double>(
                                       gen.nextBounded(64));
        const bool drop = gen.nextBounded(2) != 0;
        std::vector<double> u(n), rates(n);
        gen.fillUniformOpenLow(u);
        for (std::size_t i = 0; i < n; ++i) {
            // Mix of rates that land in-window, truncate, and tie.
            switch (gen.nextBounded(3)) {
            case 0: rates[i] = 1e-4 * (1.0 + gen.nextDouble()); break;
            case 1: rates[i] = 0.5 + gen.nextDouble(); break;
            default: rates[i] = 40.0 + gen.nextDouble(); break;
            }
        }
        std::vector<double> bins(n), ref_bins;
        const simd::BinRaceResult got = simd::kernels().expDrawBin(
            u.data(), rates.data(), n, t_max, drop, bins.data());
        const simd::BinRaceResult want = referenceExpDrawBin(
            u, rates, t_max, drop, ref_bins);
        ASSERT_EQ(got.contenders, want.contenders);
        if (want.contenders != 0) {
            EXPECT_EQ(got.bestBin, want.bestBin);
            EXPECT_EQ(got.first, want.first);
            EXPECT_EQ(got.last, want.last);
            EXPECT_EQ(got.tied, want.tied);
        }
        EXPECT_EQ(bins, ref_bins);
    }
}

TEST(Vecmath, ExpDrawBinAllTruncatedReportsNoContenders)
{
    std::vector<double> u(17, 0.5), rates(17, 1e-9), bins(17);
    const simd::BinRaceResult r = simd::kernels().expDrawBin(
        u.data(), rates.data(), u.size(), 8.0,
        /*drop_truncated=*/true, bins.data());
    EXPECT_EQ(r.contenders, 0u);
    for (double b : bins)
        EXPECT_EQ(b, kInf);
}

// ------------------------------------------------------------------
// Backend equivalence: every compiled-and-runnable backend must be
// bit-identical to the scalar fallback on every kernel, including
// sizes that exercise the vector tails.
// ------------------------------------------------------------------

TEST(BackendEquivalence, AllKernelsBitIdenticalToScalar)
{
    const simd::KernelTable &ref =
        simd::kernelsFor(simd::Backend::Scalar);
    const std::vector<std::size_t> sizes = {0, 1, 2, 3, 5, 7, 8,
                                            15, 16, 17, 31, 33, 64};
    for (simd::Backend b : simd::runnableBackends()) {
        SCOPED_TRACE(simd::backendName(b));
        const simd::KernelTable &k = simd::kernelsFor(b);
        rng::Xoshiro256 gen(31);
        for (std::size_t n : sizes) {
            std::vector<double> u(n), rates(n), a1(n), a2(n);
            std::vector<float> e(n);
            gen.fillUniformOpenLow(u);
            for (std::size_t i = 0; i < n; ++i) {
                rates[i] = 0.01 + gen.nextDouble() * 30.0;
                e[i] = static_cast<float>(gen.nextDouble() * 280.0 -
                                          10.0);
            }

            std::vector<double> xs(n); // log outputs: negatives
            for (std::size_t i = 0; i < n; ++i)
                xs[i] = simd::slog(u[i]);
            k.expBatch(xs.data(), a1.data(), n);
            ref.expBatch(xs.data(), a2.data(), n);
            EXPECT_EQ(a1, a2);

            k.expDraw(u.data(), rates.data(), a1.data(), n);
            ref.expDraw(u.data(), rates.data(), a2.data(), n);
            EXPECT_EQ(a1, a2);

            EXPECT_EQ(k.quantizeEnergies(e.data(), 255.0, a1.data(),
                                         n),
                      ref.quantizeEnergies(e.data(), 255.0,
                                           a2.data(), n));
            EXPECT_EQ(a1, a2);

            std::vector<double> table(256);
            for (std::size_t i = 0; i < table.size(); ++i)
                table[i] = 1.0 / (1.0 + static_cast<double>(i));
            std::vector<std::uint32_t> l1(n), l2(n);
            const std::size_t fire = k.firingRates(
                e.data(), 255.0, true, table.data(), 40, n, a1.data(),
                l1.data());
            ASSERT_EQ(fire, ref.firingRates(e.data(), 255.0, true,
                                            table.data(), 40, n,
                                            a2.data(), l2.data()));
            a1.resize(fire);
            a2.resize(fire);
            l1.resize(fire);
            l2.resize(fire);
            EXPECT_EQ(a1, a2);
            EXPECT_EQ(l1, l2);
            a1.resize(n);
            a2.resize(n);

            if (n > 0) {
                EXPECT_EQ(k.argmin(u.data(), n),
                          ref.argmin(u.data(), n));
                for (bool drop : {false, true}) {
                    const simd::BinRaceResult r1 = k.expDrawBin(
                        u.data(), rates.data(), n, 16.0, drop,
                        a1.data());
                    const simd::BinRaceResult r2 = ref.expDrawBin(
                        u.data(), rates.data(), n, 16.0, drop,
                        a2.data());
                    EXPECT_EQ(a1, a2);
                    EXPECT_EQ(r1.bestBin, r2.bestBin);
                    EXPECT_EQ(r1.first, r2.first);
                    EXPECT_EQ(r1.last, r2.last);
                    EXPECT_EQ(r1.tied, r2.tied);
                    EXPECT_EQ(r1.contenders, r2.contenders);
                }
            }

            std::vector<float> s(n), r2(n), r3(n), r4(n), r5(n);
            std::vector<float> o1(n), o2(n);
            for (std::size_t i = 0; i < n; ++i) {
                s[i] = static_cast<float>(gen.nextDouble());
                r2[i] = static_cast<float>(gen.nextDouble());
                r3[i] = static_cast<float>(gen.nextDouble());
                r4[i] = static_cast<float>(gen.nextDouble());
                r5[i] = static_cast<float>(gen.nextDouble());
            }
            k.addRows5(s.data(), r2.data(), r3.data(), r4.data(),
                       r5.data(), o1.data(), n);
            ref.addRows5(s.data(), r2.data(), r3.data(), r4.data(),
                         r5.data(), o2.data(), n);
            EXPECT_EQ(o1, o2);

            // Row-fused kernels: treat n as the pixel count with a
            // fixed small alphabet.
            const std::size_t m = 5;
            std::vector<float> ep(n * m);
            for (float &v : ep)
                v = static_cast<float>(gen.nextDouble() * 120.0);
            std::vector<double> w1(n * m), w2(n * m);
            k.gibbsWeightsRow(ep.data(), n, m, 2.3, w1.data());
            ref.gibbsWeightsRow(ep.data(), n, m, 2.3, w2.data());
            EXPECT_EQ(w1, w2);

            std::vector<float> sing(n * m), pair(m * m);
            std::vector<std::uint8_t> lf(n), rt(n), up(n), dn(n);
            for (float &v : sing)
                v = static_cast<float>(gen.nextDouble() * 50.0);
            for (float &v : pair)
                v = static_cast<float>(gen.nextDouble() * 9.0);
            for (std::size_t i = 0; i < n; ++i) {
                lf[i] = static_cast<std::uint8_t>(gen.nextBounded(m));
                rt[i] = static_cast<std::uint8_t>(gen.nextBounded(m));
                up[i] = static_cast<std::uint8_t>(gen.nextBounded(m));
                dn[i] = static_cast<std::uint8_t>(gen.nextBounded(m));
            }
            std::vector<float> f1(n * m), f2(n * m);
            for (std::size_t step : {std::size_t{1}, std::size_t{2}}) {
                const std::size_t cnt = step == 1 ? n : n / 2;
                if (cnt == 0)
                    continue;
                k.energyRunU8(sing.data(), m, pair.data(), m,
                              lf.data(), rt.data(), up.data(),
                              dn.data(), step, cnt, f1.data());
                ref.energyRunU8(sing.data(), m, pair.data(), m,
                                lf.data(), rt.data(), up.data(),
                                dn.data(), step, cnt, f2.data());
                EXPECT_EQ(f1, f2) << "energyRunU8 step " << step;
            }
        }
    }
}

/** One packed-lane pixel's classify words. */
struct PackedWords
{
    std::uint64_t word = 0, cw0 = 0, cw1 = 0;
};

/**
 * The packed lane's words restated from their definition, for one
 * pixel of @p m <= 16 labels: round each energy to nearest and clamp
 * it to [0, top], subtract the pixel's minimum when asked, count
 * each class in its byte of the count word, and put label i's class
 * in byte i % 8 of cw0 (i < 8) or of cw1.
 */
PackedWords
literalPackedWords(const float *e, double top, bool subtract_min,
                   const std::vector<std::uint8_t> &cls, std::size_t m)
{
    std::vector<double> q(m);
    for (std::size_t i = 0; i < m; ++i)
        q[i] = std::clamp(std::nearbyint(static_cast<double>(e[i])),
                          0.0, top);
    const double base =
        subtract_min ? *std::min_element(q.begin(), q.end()) : 0.0;
    PackedWords w;
    for (std::size_t i = 0; i < m; ++i) {
        const auto b = static_cast<std::uint64_t>(q[i] - base);
        const std::uint64_t c = cls[b];
        const unsigned shift = 8 * static_cast<unsigned>(i % 8);
        w.word += std::uint64_t{1} << (8 * c);
        (i < 8 ? w.cw0 : w.cw1) |= c << shift;
    }
    return w;
}

TEST(BackendEquivalence, PackedClassifyKernelsBitIdenticalToScalar)
{
    // The packed lane's fused quantize/classify kernel must agree with
    // the scalar reference bit for bit on every runnable backend,
    // including the m < 16 lanes the SIMD paths mask rather than
    // skip.  The scalar reference itself is held to
    // literalPackedWords(), so a fault shared by every backend (the
    // kernels are compiled from one template) cannot pass as
    // agreement.
    const simd::KernelTable &ref =
        simd::kernelsFor(simd::Backend::Scalar);
    const double top = 255.0;
    rng::Xoshiro256 gen(97);

    // A byte -> class table like a decaying rate table's: strictly
    // decreasing class values (the union alphabet may skip values)
    // over random boundaries, padded 8 bytes past the end for the
    // vector backends' 32-bit gathers, as RateBinding pads its own.
    std::vector<std::uint8_t> boundaries;
    while (boundaries.size() < 5) {
        const auto b =
            static_cast<std::uint8_t>(1 + gen.nextBounded(254));
        if (std::find(boundaries.begin(), boundaries.end(), b) ==
            boundaries.end())
            boundaries.push_back(b);
    }
    std::sort(boundaries.begin(), boundaries.end());
    const std::uint8_t vals[6] = {7, 6, 4, 3, 1, 0}; // skips like a union
    std::vector<std::uint8_t> cls(256 + 8, 0);
    for (std::size_t b = 0; b < 256; ++b) {
        std::size_t j = 0;
        while (j < boundaries.size() && b >= boundaries[j])
            ++j;
        cls[b] = vals[j];
    }

    for (simd::Backend b : simd::runnableBackends()) {
        SCOPED_TRACE(simd::backendName(b));
        const simd::KernelTable &k = simd::kernelsFor(b);
        for (std::size_t n : {std::size_t{1}, std::size_t{7},
                              std::size_t{33}}) {
            for (std::size_t m : {std::size_t{5}, std::size_t{11},
                                  std::size_t{16}}) {
                std::vector<float> e(n * m);
                for (float &v : e)
                    v = static_cast<float>(gen.nextDouble() * 280.0);
                for (bool subtract_min : {false, true}) {
                    SCOPED_TRACE(std::to_string(n) + "x" +
                                 std::to_string(m) +
                                 (subtract_min ? " based" : " raw"));
                    std::vector<std::uint64_t> w1(3 * n), w2(3 * n);
                    k.quantizeClassifyRow(e.data(), top, subtract_min,
                                          cls.data(), n, m, w1.data());
                    ref.quantizeClassifyRow(e.data(), top,
                                            subtract_min, cls.data(),
                                            n, m, w2.data());
                    EXPECT_EQ(w1, w2);
                    for (std::size_t p = 0; p < n; ++p) {
                        const PackedWords lit = literalPackedWords(
                            e.data() + p * m, top, subtract_min, cls,
                            m);
                        EXPECT_EQ(w2[3 * p], lit.word) << "pixel " << p;
                        EXPECT_EQ(w2[3 * p + 1], lit.cw0)
                            << "pixel " << p;
                        EXPECT_EQ(w2[3 * p + 2], lit.cw1)
                            << "pixel " << p;
                    }
                }
            }
        }
    }
}

TEST(BackendEquivalence, RowFusedKernelsMatchTheirComposition)
{
    // The row-fused kernels must be bit-identical to the per-pixel
    // compositions they fuse — gibbsWeightsRow to a float-min scan,
    // (double(e_min) - double(e)) / T quotients staged in double and
    // expBatch per pixel, energyRunU8 to addRows5 over the pairwise
    // rows the neighbor bytes select.  Scalar is the reference table;
    // the backend sweep above carries the identity to every lane.
    const simd::KernelTable &k = simd::kernelsFor(simd::Backend::Scalar);
    const std::size_t n = 23, m = 7;
    rng::Xoshiro256 gen(417);
    std::vector<float> ep(n * m);
    for (float &v : ep)
        v = static_cast<float>(gen.nextDouble() * 90.0);

    std::vector<double> fused(n * m), composed(n * m);
    k.gibbsWeightsRow(ep.data(), n, m, 1.7, fused.data());
    for (std::size_t p = 0; p < n; ++p) {
        const float *e = ep.data() + p * m;
        double *w = composed.data() + p * m;
        float e_min = e[0];
        for (std::size_t i = 1; i < m; ++i)
            e_min = std::min(e_min, e[i]);
        for (std::size_t i = 0; i < m; ++i)
            w[i] = (static_cast<double>(e_min) -
                    static_cast<double>(e[i])) /
                   1.7;
        k.expBatch(w, w, m);
    }
    EXPECT_EQ(fused, composed);

    std::vector<float> sing(n * m), pair(m * m);
    std::vector<std::uint8_t> lf(n), rt(n), up(n), dn(n);
    for (float &v : sing)
        v = static_cast<float>(gen.nextDouble() * 40.0);
    for (float &v : pair)
        v = static_cast<float>(gen.nextDouble() * 6.0);
    for (std::size_t i = 0; i < n; ++i) {
        lf[i] = static_cast<std::uint8_t>(gen.nextBounded(m));
        rt[i] = static_cast<std::uint8_t>(gen.nextBounded(m));
        up[i] = static_cast<std::uint8_t>(gen.nextBounded(m));
        dn[i] = static_cast<std::uint8_t>(gen.nextBounded(m));
    }
    std::vector<float> f_fused(n * m), f_comp(n * m);
    k.energyRunU8(sing.data(), m, pair.data(), m, lf.data(),
                  rt.data(), up.data(), dn.data(), 1, n,
                  f_fused.data());
    for (std::size_t p = 0; p < n; ++p)
        k.addRows5(sing.data() + p * m, pair.data() + lf[p] * m,
                   pair.data() + rt[p] * m, pair.data() + up[p] * m,
                   pair.data() + dn[p] * m, f_comp.data() + p * m, m);
    EXPECT_EQ(f_fused, f_comp);
}

/** The firingRates contract, restated with branches: quantize with
 *  util-style clamping, subtract E_min under scaling, keep the labels
 *  whose index lies below @p bound, and look their rates up. */
std::size_t
referenceFiringRates(const std::vector<float> &e, double top,
                     bool subtract_min, const std::vector<double> &table,
                     std::size_t bound, std::vector<double> &rates,
                     std::vector<std::uint32_t> &labels)
{
    std::vector<double> q(e.size());
    double e_min = top;
    for (std::size_t i = 0; i < e.size(); ++i) {
        double r = std::nearbyint(static_cast<double>(e[i]));
        if (!(r > 0.0))
            r = 0.0; // NaN and negatives
        if (r > top)
            r = top;
        q[i] = r;
        e_min = std::min(e_min, r);
    }
    rates.clear();
    labels.clear();
    for (std::size_t i = 0; i < e.size(); ++i) {
        const auto k = static_cast<std::size_t>(
            q[i] - (subtract_min ? e_min : 0.0));
        if (k < bound) {
            rates.push_back(table[k]);
            labels.push_back(static_cast<std::uint32_t>(i));
        }
    }
    return rates.size();
}

TEST(BackendEquivalence, FiringRatesBitIdenticalToScalar)
{
    // Every width up to 40 labels (whole vectors, tails and the
    // one-vector case), energies that quantize below 0, above top, to
    // NaN and into ties at E_min, with and without decay-rate scaling,
    // over tables whose positive prefix takes every length from 0 to
    // the table size.  Every backend, the scalar one included, must
    // match a branchy restatement exactly, count and values.
    constexpr double kTop = 31.0;
    std::vector<double> table(32);
    for (std::size_t i = 0; i < table.size(); ++i)
        table[i] = 16.0 / (1.0 + static_cast<double>(i));
    rng::Xoshiro256 gen(0xf1e);
    for (std::size_t n = 0; n <= 40; ++n) {
        std::vector<float> e(n);
        for (std::size_t i = 0; i < n; ++i) {
            switch (gen.nextBounded(6)) {
              case 0: e[i] = -3.5f; break;
              case 1: e[i] = 40.0f + static_cast<float>(i); break;
              case 2:
                e[i] = std::numeric_limits<float>::quiet_NaN();
                break;
              case 3: e[i] = 2.0f; break; // ties at E_min
              default:
                e[i] = static_cast<float>(gen.nextDouble() * 34.0);
                break;
            }
        }
        for (bool scale : {false, true}) {
            for (std::size_t bound = 0; bound <= table.size();
                 ++bound) {
                SCOPED_TRACE(::testing::Message()
                             << "n=" << n << " scale=" << scale
                             << " bound=" << bound);
                std::vector<double> want_r;
                std::vector<std::uint32_t> want_l;
                const std::size_t want = referenceFiringRates(
                    e, kTop, scale, table, bound, want_r, want_l);
                for (simd::Backend b : simd::runnableBackends()) {
                    SCOPED_TRACE(simd::backendName(b));
                    const simd::KernelTable &k = simd::kernelsFor(b);
                    std::vector<double> r(n, -1.0);
                    std::vector<std::uint32_t> l(n, 999u);
                    const std::size_t got =
                        k.firingRates(e.data(), kTop, scale,
                                      table.data(), bound, n, r.data(),
                                      l.data());
                    ASSERT_EQ(got, want);
                    r.resize(got);
                    l.resize(got);
                    EXPECT_EQ(r, want_r);
                    EXPECT_EQ(l, want_l);
                }
            }
        }
    }
}

TEST(BackendEquivalence, RaceDrawsLabelsAndRngStateIdentical)
{
    // Same races under every backend: identical outcomes AND
    // identical generator state afterwards (same draw consumption).
    BackendGuard guard;
    struct Run
    {
        std::vector<int> winners;
        std::vector<unsigned> bins;
        std::uint64_t rng_after;
    };
    auto race = [](simd::Backend b) {
        simd::setBackend(simd::backendName(b));
        core::RsuConfig cfg = core::RsuConfig::newDesign();
        rng::Xoshiro256 gen(77);
        rng::Xoshiro256 rate_gen(78);
        core::RaceRowScratch scratch;
        Run run;
        for (int trial = 0; trial < 64; ++trial) {
            const std::size_t m = 1 + rate_gen.nextBounded(24);
            std::vector<double> rates(m);
            for (double &r : rates)
                r = 0.05 + rate_gen.nextDouble() * 4.0;
            core::RaceOutcome oc =
                core::runTtfRace(rates, cfg, gen, scratch);
            run.winners.push_back(oc.winner);
            run.bins.push_back(oc.winningBin);
        }
        // The literal draw from energies: firingRates, then the race
        // over the firing set, one pixel per sample() call, across
        // widths and temperatures where cut-off leaves one contender,
        // several or none.
        core::RsuSampler sampler(cfg);
        for (int trial = 0; trial < 256; ++trial) {
            const std::size_t m = 1 + rate_gen.nextBounded(33);
            std::vector<float> e(m);
            for (float &x : e)
                x = static_cast<float>(rate_gen.nextDouble() * 300.0 -
                                       20.0);
            const double temps[] = {40.0, 4.0, 0.7};
            run.winners.push_back(
                sampler.sample(e, temps[trial % 3], -1, gen));
        }
        run.bins.push_back(
            static_cast<unsigned>(sampler.noSampleEvents()));
        run.bins.push_back(static_cast<unsigned>(sampler.tieEvents()));
        run.rng_after = gen.next64();
        return run;
    };
    const Run ref = race(simd::Backend::Scalar);
    for (simd::Backend b : simd::runnableBackends()) {
        SCOPED_TRACE(simd::backendName(b));
        const Run got = race(b);
        EXPECT_EQ(got.winners, ref.winners);
        EXPECT_EQ(got.bins, ref.bins);
        EXPECT_EQ(got.rng_after, ref.rng_after);
    }
}

TEST(BackendEquivalence, SolverOutputByteIdenticalAcrossBackends)
{
    // End to end: the annealed solver's label map must not depend on
    // the dispatch level — this is the property that makes results
    // portable across machines with different ISAs.
    BackendGuard guard;
    img::ImageU8 clean(29, 29);
    for (int y = 0; y < 29; ++y)
        for (int x = 0; x < 29; ++x)
            clean(x, y) = static_cast<std::uint8_t>(
                img::textureIntensity(x, y, 0x5e1));
    img::ImageU8 noisy = apps::addGaussianNoise(clean, 10.0, 3);
    mrf::MrfProblem problem = apps::buildDenoisingProblem(noisy);
    mrf::SolverConfig cfg;
    cfg.annealing.sweeps = 4;
    cfg.annealing.t0 = 8.0;
    cfg.annealing.tEnd = 0.5;
    cfg.seed = 19;

    auto solve = [&](simd::Backend b) {
        simd::setBackend(simd::backendName(b));
        core::RsuSampler sampler(core::RsuConfig::newDesign());
        return mrf::CheckerboardGibbsSolver(cfg)
            .run(problem, sampler)
            .data();
    };
    const std::vector<int> ref = solve(simd::Backend::Scalar);
    for (simd::Backend b : simd::runnableBackends()) {
        SCOPED_TRACE(simd::backendName(b));
        EXPECT_EQ(solve(b), ref);
    }
}

TEST(BackendEquivalence, SetBackendFallsBackGracefully)
{
    BackendGuard guard;
    // Unknown specs, the retired sse42, neon and avx512 among them:
    // each keeps the current backend, whichever that is.
    for (simd::Backend before : simd::runnableBackends()) {
        SCOPED_TRACE(simd::backendName(before));
        simd::setBackend(simd::backendName(before));
        for (const char *spec :
             {"not-a-backend", "sse42", "neon", "avx512"})
            EXPECT_EQ(simd::setBackend(spec), before) << spec;
    }
    // "off" always lands on scalar; "auto" always resolves.
    EXPECT_EQ(simd::setBackend("off"), simd::Backend::Scalar);
    const simd::Backend resolved = simd::setBackend("auto");
    const std::vector<simd::Backend> runnable =
        simd::runnableBackends();
    EXPECT_NE(std::find(runnable.begin(), runnable.end(), resolved),
              runnable.end());
}

} // namespace
