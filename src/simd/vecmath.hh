/**
 * @file
 * Bit-exact polynomial vecmath (vlog, vexp) templated over a vec.hh
 * backend, plus the templated bodies of the dispatched batch kernels.
 *
 * Every kernel is branch-free so every lane of every backend
 * executes the identical IEEE operation sequence:
 *
 *  - vlog (production): table-driven, division-free.  Decompose
 *    x = 2^k * z with z in [0.7051, 1.4102) by exponent-field
 *    arithmetic, split z's mantissa range into 128 intervals with
 *    midpoint anchors c, then log x = k*ln2 + log(c) + log1p(r) with
 *    r = (z - c) * invc (z - c exact by Sterbenz) and a degree-7
 *    log1p Taylor core.  invc/logc come from a 2 KiB table built
 *    once per process by IEEE division and the fdlibm core — both
 *    deterministic — so the table and every result are identical on
 *    every machine.  The interval holding 1.0 is anchored at exactly
 *    c = 1 (invc = 1, logc = 0), keeping the near-1 cancellation
 *    zone polynomial-only.  Accuracy ~1 ulp near 1, a few ulp at
 *    the interval seams (asserted <= 8 ulp by tests).
 *  - vlogFdlibm (reference): the fdlibm/musl e_log.c reduction with
 *    the f/(2+f) divide.  ~1 ulp; builds the table and serves as the
 *    test yardstick.  Not dispatched.
 *  - vexp: fdlibm e_exp.c: k = round(x/ln2), r = x - k*ln2 in two
 *    pieces, rational core exp(r) = 1 - ((lo - r*c/(2-c)) - hi),
 *    scaled by 2^k split into two exact power-of-two factors so
 *    results decay gracefully into the denormal range.  Accuracy
 *    ~1 ulp for normal results.
 *
 * THE CONTRACT: every sampling-path transcendental in retsim goes
 * through these kernels (scalar callers through the one-lane
 * instantiation), so sampler output is a function of the algorithm
 * here — not of libm, the ISA, or the dispatch level.  Changing any
 * constant or operation order below changes every pinned baseline in
 * the repo; see DESIGN.md ("SIMD layer") before touching it.
 *
 * Out-of-domain behavior (sufficient for the samplers, asserted by
 * tests): vlog(0) = -inf, vlog(x<0) = NaN, vlog(+inf) = +inf,
 * vlog of denormals is rescaled and correct; vexp(x <= -746) = 0,
 * vexp(x >= 709.79) = +inf, NaN propagates.  vexp results in the
 * denormal range (x < ~-708.4) are monotone and within a few ulp but
 * not guaranteed correctly rounded (double rounding in the two-step
 * scale).
 *
 * This header is included ONLY by the per-backend TUs in src/simd,
 * which are compiled with -ffp-contract=off; including it elsewhere
 * would let the host TU's contraction flags silently fork the scalar
 * instantiation.
 */

#ifndef RETSIM_SIMD_VECMATH_HH
#define RETSIM_SIMD_VECMATH_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "simd/kernels.hh"
#include "simd/vec.hh"

namespace retsim {
namespace simd {
namespace detail {

// fdlibm e_log.c coefficients.
inline constexpr double kLg1 = 6.666666666666735130e-01;
inline constexpr double kLg2 = 3.999999999940941908e-01;
inline constexpr double kLg3 = 2.857142874366239149e-01;
inline constexpr double kLg4 = 2.222219843214978396e-01;
inline constexpr double kLg5 = 1.818357216161805012e-01;
inline constexpr double kLg6 = 1.531383769920937332e-01;
inline constexpr double kLg7 = 1.479819860511658591e-01;

// fdlibm e_exp.c coefficients.
inline constexpr double kP1 = 1.66666666666666019037e-01;
inline constexpr double kP2 = -2.77777777770155933842e-03;
inline constexpr double kP3 = 6.61375632143793436117e-05;
inline constexpr double kP4 = -1.65339022054652515390e-06;
inline constexpr double kP5 = 4.13813679705723846039e-08;

inline constexpr double kLn2Hi = 6.93147180369123816490e-01;
inline constexpr double kLn2Lo = 1.90821492927058770002e-10;
inline constexpr double kInvLn2 = 1.44269504088896338700e+00;

/** 1.5 * 2^52: the int<->double conversion pivot for |v| < 2^51. */
inline constexpr double kShifter = 6755399441055744.0;
inline constexpr std::uint64_t kShifterBits = 0x4338000000000000ULL;

inline constexpr double kExpOverflow = 709.782712893383973096;
inline constexpr double kExpUnderflow = -745.2;
inline constexpr double kNan =
    std::numeric_limits<double>::quiet_NaN();
inline constexpr double kInf =
    std::numeric_limits<double>::infinity();

/** Exact double of the signed int64 lanes (|v| < 2^51). */
template <typename V>
inline typename V::vd
intToDouble(typename V::vi v)
{
    return V::sub(V::fromBits(V::addi(v, V::set1i(kShifterBits))),
                  V::set1(kShifter));
}

/**
 * 2^e as a double for integer-valued double lanes e in [-1022, 1023];
 * exact, via exponent-field assembly.
 */
template <typename V>
inline typename V::vd
pow2FromDouble(typename V::vd e)
{
    typename V::vd biased = V::add(e, V::set1(1023.0));
    typename V::vi bits =
        V::toBits(V::add(biased, V::set1(kShifter)));
    return V::fromBits(
        V::template shli<52>(V::andi(bits, V::set1i(0x7ffULL))));
}

/**
 * log(x), fdlibm algorithm, branch-free.  All lanes run the full
 * pipeline; out-of-domain lanes are patched by selects at the end.
 *
 * NOT the production vlog: its f/(2+f) reduction costs an IEEE divide
 * per vector, which dominates the sampling kernels.  It is retained
 * as the ~1 ulp reference that builds the log table below (one scalar
 * evaluation per table entry, once per process) and as the accuracy
 * yardstick in tests.
 */
template <typename V>
inline typename V::vd
vlogFdlibmCore(typename V::vd x)
{
    using vd = typename V::vd;
    using vi = typename V::vi;
    using vm = typename V::vm;

    // Rescue denormal lanes: scale into the normal range and account
    // for the shift in k.  0x1p54 scaling is exact.
    const vd tiny_bound = V::set1(2.2250738585072014e-308); // DBL_MIN
    vm tiny = V::cmplt(x, tiny_bound);
    x = V::select(tiny, V::mul(x, V::set1(0x1p54)), x);
    vd k_bias = V::select(tiny, V::set1(-54.0), V::set1(0.0));

    // x = 2^k * f, f in [sqrt(2)/2, sqrt(2)): exponent arithmetic on
    // the bit image (fdlibm's high-word manipulation, on 64b lanes).
    vi bits = V::toBits(x);
    vi hx = V::template shri<32>(bits);
    vi k_int =
        V::subi(V::template shri<52>(bits), V::set1i(1023));
    vi hm = V::andi(hx, V::set1i(0x000fffffULL));
    vi i = V::andi(V::addi(hm, V::set1i(0x95f64ULL)),
                   V::set1i(0x100000ULL));
    vi newhi = V::ori(hm, V::xori(i, V::set1i(0x3ff00000ULL)));
    bits = V::ori(V::template shli<32>(newhi),
                  V::andi(bits, V::set1i(0xffffffffULL)));
    k_int = V::addi(k_int, V::template shri<20>(i));
    vd f = V::sub(V::fromBits(bits), V::set1(1.0));
    vd dk = V::add(intToDouble<V>(k_int), k_bias);

    // log(1+f) via s = f/(2+f) and the Lg minimax series.
    vd s = V::div(f, V::add(V::set1(2.0), f));
    vd z = V::mul(s, s);
    vd w = V::mul(z, z);
    vd t1 = V::mul(
        w, V::add(V::set1(kLg2),
                  V::mul(w, V::add(V::set1(kLg4),
                                   V::mul(w, V::set1(kLg6))))));
    vd t2 = V::mul(
        z,
        V::add(V::set1(kLg1),
               V::mul(w,
                      V::add(V::set1(kLg3),
                             V::mul(w, V::add(V::set1(kLg5),
                                              V::mul(w,
                                                     V::set1(
                                                         kLg7))))))));
    vd r = V::add(t2, t1);
    vd hfsq = V::mul(V::mul(V::set1(0.5), f), f);
    // dk*ln2_hi - ((hfsq - (s*(hfsq+R) + dk*ln2_lo)) - f)
    vd res = V::sub(
        V::mul(dk, V::set1(kLn2Hi)),
        V::sub(V::sub(hfsq,
                      V::add(V::mul(s, V::add(hfsq, r)),
                             V::mul(dk, V::set1(kLn2Lo)))),
               f));

    // Domain patches: +inf passes through, 0 -> -inf, negative or
    // NaN -> NaN.  (cmpeq is false for NaN, cmplt(0,x) too.)
    res = V::select(V::cmpeq(x, V::set1(kInf)), V::set1(kInf), res);
    res = V::select(V::cmpeq(x, V::set1(0.0)),
                    V::set1(-kInf), res);
    vm bad = V::cmple(x, V::set1(0.0));
    // "x <= 0 but x != 0" or unordered: rebuild as NOT(x > 0) AND
    // NOT(x == 0) without a mask-logic op: two nested selects.
    vd nan_or = V::select(bad, V::set1(kNan), res);
    res = V::select(V::cmpeq(x, V::set1(0.0)), res, nan_or);
    // NaN input: x > 0 is false and x == 0 is false -> first select
    // took the NaN branch only if cmple was true, which is false for
    // NaN.  Patch unordered lanes explicitly: x != x.
    vm unordered = V::cmpeq(x, x); // true for ordered lanes
    res = V::select(unordered, res, V::set1(kNan));
    return res;
}

// ------------------------------------------------------------------
// Table-driven log reduction: the production vlog.  Division-free
// (the fdlibm core's f/(2+f) divide is the single most expensive
// operation in the sampling hot loops), at the cost of a 2 KiB
// two-array table and a few ulp of accuracy near the interval seams.
// ------------------------------------------------------------------

inline constexpr int kLogTableBits = 7;
inline constexpr int kLogTableSize = 1 << kLogTableBits; // 128

/**
 * Anchor offset of the reduction x = 2^k * z, z in [0.7051, 1.4102):
 * bits(z) - kLogOff selects one of 128 equal mantissa intervals.
 * Chosen (unlike ARM optimized-routines' nearby constant) so that
 * 1.0 is the exact midpoint of its interval: that interval's entry
 * degenerates to invc = 1, logc = 0, making r = z - 1 exact where
 * log(x) itself goes through zero — the one region where any table
 * or reduction rounding would be catastrophic relative to the
 * result.
 */
inline constexpr std::uint64_t kLogOff = 0x3FE6900000000000ULL;

/** Interval midpoint reciprocals (invc ~ 1/c) and midpoint logs
 *  (logc = log(c), fdlibm-core accurate). */
struct LogTable
{
    double invc[kLogTableSize];
    double logc[kLogTableSize];
};

/**
 * Built once per process from IEEE divisions and the scalar fdlibm
 * core — both deterministic operation sequences — so the table bits,
 * and hence every vlog result, are identical on every machine and
 * backend.  (An inline function local: one shared instance across
 * the backend TUs.)
 */
inline const LogTable &
logTable()
{
    static const LogTable table = [] {
        LogTable t{};
        for (int i = 0; i < kLogTableSize; ++i) {
            const double c = std::bit_cast<double>(
                kLogOff +
                (static_cast<std::uint64_t>(i)
                 << (52 - kLogTableBits)) +
                (std::uint64_t{1} << (52 - kLogTableBits - 1)));
            t.invc[i] = 1.0 / c;
            t.logc[i] = vlogFdlibmCore<VScalar>(c);
        }
        return t;
    }();
    return table;
}

// Taylor coefficients of (log1p(r) - r) / r^2; with |r| <= 2^-8 the
// omitted r^8/8 term is below 2^-59 relative to r.
inline constexpr double kLt2 = -1.0 / 2.0;
inline constexpr double kLt3 = 1.0 / 3.0;
inline constexpr double kLt4 = -1.0 / 4.0;
inline constexpr double kLt5 = 1.0 / 5.0;
inline constexpr double kLt6 = -1.0 / 6.0;
inline constexpr double kLt7 = 1.0 / 7.0;

/**
 * The table-driven log pipeline for strictly-positive, finite,
 * NORMAL inputs — no denormal rescue, no domain patches.  For inputs
 * in that domain the full vlogCore's rescue and patch selects never
 * alter a lane, so this core is bit-identical to it there; expDraw
 * feeds it uniforms in [2^-53, 1) and skips ~30% of the op count.
 * Accuracy: ~1 ulp near 1 (exact-anchor interval), a few ulp worst
 * case just outside it where the result is smallest relative to the
 * reduction's absolute rounding (~2^-60); asserted <= 8 ulp against
 * the fdlibm core by tests/vecmath_test.cc.
 */
template <typename V>
inline typename V::vd
vlogNormalCore(typename V::vd x, typename V::vd k_bias)
{
    using vd = typename V::vd;
    using vi = typename V::vi;

    const LogTable &lt = logTable();

    // k, the table index and the anchor c all come from exponent-
    // field arithmetic on tmp = bits(x) - kLogOff.
    vi ix = V::toBits(x);
    vi tmp = V::subi(ix, V::set1i(kLogOff));
    vi idx = V::andi(V::template shri<52 - kLogTableBits>(tmp),
                     V::set1i(kLogTableSize - 1));
    // Arithmetic >>52 of tmp, built from the logical shift: flip the
    // sign bit, shift, re-bias.
    vi k_int = V::subi(
        V::template shri<52>(
            V::xori(tmp, V::set1i(0x8000000000000000ULL))),
        V::set1i(0x800ULL));
    vi iz =
        V::subi(ix, V::andi(tmp, V::set1i(0xFFF0000000000000ULL)));
    vd z = V::fromBits(iz);
    // c = the interval midpoint, assembled from the index bits; no
    // third table load.  z - c is exact (Sterbenz: z/c in 1 +- 2^-8).
    vd c = V::fromBits(V::addi(
        V::addi(V::set1i(kLogOff),
                V::andi(tmp,
                        V::set1i(std::uint64_t{kLogTableSize - 1}
                                 << (52 - kLogTableBits)))),
        V::set1i(std::uint64_t{1} << (52 - kLogTableBits - 1))));

    vd invc = V::gather(lt.invc, idx);
    vd logc = V::gather(lt.logc, idx);

    // r = (z - c)/c to ~2^-52 relative, |r| <= 2^-8: the exact
    // difference keeps the rounding proportional to r itself.
    vd r = V::mul(V::sub(z, c), invc);
    vd kd = V::add(intToDouble<V>(k_int), k_bias);

    // log x = (k*ln2_hi + logc) + r + (r^2*q(r) + k*ln2_lo), where
    // k*ln2_hi is exact (ln2_hi's low mantissa bits are zero and
    // |k| < 2^11) and the third term gathers everything tiny.
    vd rr = V::mul(r, r);
    vd q = V::add(
        V::add(V::set1(kLt2), V::mul(r, V::set1(kLt3))),
        V::mul(rr,
               V::add(V::add(V::set1(kLt4),
                             V::mul(r, V::set1(kLt5))),
                      V::mul(rr, V::add(V::set1(kLt6),
                                        V::mul(r,
                                               V::set1(kLt7)))))));
    vd w = V::add(V::mul(kd, V::set1(kLn2Hi)), logc);
    vd lo = V::add(V::mul(rr, q), V::mul(kd, V::set1(kLn2Lo)));
    return V::add(w, V::add(r, lo));
}

/**
 * log(x), table-driven, branch-free, division-free: the production
 * vlog.  All lanes run the full vlogNormalCore pipeline; denormal
 * lanes are rescaled in and out-of-domain lanes patched by selects
 * at the end, exactly like the fdlibm core.  Its one instantiation
 * is the scalar slog(); the draw kernels, whose uniforms are normal
 * and positive, go through vlogNormalCore directly.
 */
template <typename V>
inline typename V::vd
vlogCore(typename V::vd x)
{
    using vd = typename V::vd;
    using vm = typename V::vm;

    // Rescue denormal lanes: scale into the normal range and account
    // for the shift in k.  0x1p54 scaling is exact.
    const vd tiny_bound = V::set1(2.2250738585072014e-308); // DBL_MIN
    vm tiny = V::cmplt(x, tiny_bound);
    x = V::select(tiny, V::mul(x, V::set1(0x1p54)), x);
    vd k_bias = V::select(tiny, V::set1(-54.0), V::set1(0.0));

    vd res = vlogNormalCore<V>(x, k_bias);

    // Domain patches: +inf passes through, 0 -> -inf, negative or
    // NaN -> NaN.  (cmpeq is false for NaN, cmplt(0,x) too.)
    res = V::select(V::cmpeq(x, V::set1(kInf)), V::set1(kInf), res);
    res = V::select(V::cmpeq(x, V::set1(0.0)),
                    V::set1(-kInf), res);
    vm bad = V::cmple(x, V::set1(0.0));
    vd nan_or = V::select(bad, V::set1(kNan), res);
    res = V::select(V::cmpeq(x, V::set1(0.0)), res, nan_or);
    vm unordered = V::cmpeq(x, x); // true for ordered lanes
    res = V::select(unordered, res, V::set1(kNan));
    return res;
}

/** exp(x), fdlibm algorithm, branch-free with two-step 2^k scale. */
template <typename V>
inline typename V::vd
vexpCore(typename V::vd x)
{
    using vd = typename V::vd;
    using vm = typename V::vm;

    vm too_big = V::cmple(V::set1(kExpOverflow), x);
    vm too_small = V::cmple(x, V::set1(kExpUnderflow));

    // k = round(x / ln2), clamped so both scale halves stay inside
    // the exponent range; out-of-range lanes are patched at the end.
    vd kd = V::roundNearest(V::mul(x, V::set1(kInvLn2)));
    kd = V::min(kd, V::set1(2046.0));
    kd = V::max(kd, V::set1(-2044.0));
    // Keep the reduction finite on +-inf inputs so no spurious NaN
    // leaks past the selects below.
    vd xr = V::min(x, V::set1(1024.0));
    xr = V::max(xr, V::set1(-1480.0));

    vd hi = V::sub(xr, V::mul(kd, V::set1(kLn2Hi)));
    vd lo = V::mul(kd, V::set1(kLn2Lo));
    vd r = V::sub(hi, lo);

    vd rr = V::mul(r, r);
    vd c = V::sub(
        r,
        V::mul(rr,
               V::add(V::set1(kP1),
                      V::mul(rr,
                             V::add(V::set1(kP2),
                                    V::mul(rr,
                                           V::add(V::set1(kP3),
                                                  V::mul(rr,
                                                         V::add(
                                                             V::set1(
                                                                 kP4),
                                                             V::mul(
                                                                 rr,
                                                                 V::set1(
                                                                     kP5)))))))))));
    // y = 1 - ((lo - r*c/(2-c)) - hi)
    vd y = V::sub(
        V::set1(1.0),
        V::sub(V::sub(lo, V::div(V::mul(r, c),
                                 V::sub(V::set1(2.0), c))),
               hi));

    // Scale by 2^k in two exact power-of-two factors (k split as
    // floor(k/2) + remainder) so denormal results round once per
    // factor instead of overflowing the exponent field.
    vd k1 = V::floor(V::mul(kd, V::set1(0.5)));
    vd k2 = V::sub(kd, k1);
    y = V::mul(V::mul(y, pow2FromDouble<V>(k1)),
               pow2FromDouble<V>(k2));

    y = V::select(too_big, V::set1(kInf), y);
    y = V::select(too_small, V::set1(0.0), y);
    // NaN input: both range compares are false; the clamped pipeline
    // produced some finite value -> patch unordered lanes.
    vm ordered = V::cmpeq(x, x);
    y = V::select(ordered, y, V::set1(kNan));
    return y;
}

// ------------------------------------------------------------------
// Templated batch-kernel bodies.  Main loop at the backend's width,
// tail at one lane through the SAME backend-templated core (a 1-lane
// call of vexpCore<VScalar> is the identical operation sequence, so
// tails are bit-identical to full vectors).
// ------------------------------------------------------------------

template <typename V>
inline void
expBatchT(const double *x, double *out, std::size_t n)
{
    constexpr std::size_t w = V::kWidth;
    std::size_t i = 0;
    for (; i + w <= n; i += w)
        V::store(out + i, vexpCore<V>(V::load(x + i)));
    for (; i < n; ++i)
        out[i] = vexpCore<VScalar>(x[i]);
}

/**
 * out[i] = -log(u[i]) / rates[i] — the exponential-draw kernel.
 * The uniforms come from Rng::fillUniformOpenLow, whose outputs lie
 * in [2^-53, 1) — strictly positive normal doubles — so the log goes
 * through vlogNormalCore (bit-identical to vlogCore on that domain,
 * ~30% fewer ops).
 */
template <typename V>
inline void
expDrawT(const double *u, const double *rates, double *out,
         std::size_t n)
{
    constexpr std::size_t w = V::kWidth;
    const typename V::vd zero_bias = V::set1(0.0);
    std::size_t i = 0;
    for (; i + w <= n; i += w)
        V::store(out + i,
                 V::div(V::neg(vlogNormalCore<V>(V::load(u + i),
                                                 zero_bias)),
                        V::load(rates + i)));
    for (; i < n; ++i)
        out[i] = -vlogNormalCore<VScalar>(u[i], 0.0) / rates[i];
}

/** out[i] = s[i] + a[i] + b[i] + c[i] + d[i], float lanes, fixed
 *  left-to-right association (bit-identical at any width). */
template <typename V>
inline void
addRows5T(const float *s, const float *a, const float *b,
          const float *c, const float *d, float *out, std::size_t n)
{
    constexpr std::size_t w = V::kWidthF;
    std::size_t i = 0;
    for (; i + w <= n; i += w) {
        typename V::vf acc = V::addF(V::loadF(s + i), V::loadF(a + i));
        acc = V::addF(acc, V::loadF(b + i));
        acc = V::addF(acc, V::loadF(c + i));
        acc = V::addF(acc, V::loadF(d + i));
        V::storeF(out + i, acc);
    }
    for (; i < n; ++i)
        out[i] = s[i] + a[i] + b[i] + c[i] + d[i];
}

/**
 * First index of the strict minimum (n >= 1).  Lane-striped running
 * minima with index tracking; the horizontal merge prefers the lower
 * index among equal lane minima, which reproduces the scalar
 * first-strict-min scan exactly.
 */
template <typename V>
inline std::size_t
argminT(const double *t, std::size_t n)
{
    constexpr std::size_t w = V::kWidth;
    double best = t[0];
    std::size_t best_idx = 0;
    std::size_t i = 1;
    if (w > 1 && n >= 2 * w) {
        typename V::vd vbest = V::load(t);
        typename V::vd vidx = V::set1(0.0);
        // Lane j of vidx holds the index (as an exact double) of the
        // earliest strict minimum seen in lane j's subsequence.
        double idx_seed[w > 0 ? w : 1];
        for (std::size_t j = 0; j < w; ++j)
            idx_seed[j] = static_cast<double>(j);
        vidx = V::load(idx_seed);
        typename V::vd vcur_idx = vidx;
        const typename V::vd vstep =
            V::set1(static_cast<double>(w));
        i = w;
        for (; i + w <= n; i += w) {
            vcur_idx = V::add(vcur_idx, vstep);
            typename V::vd v = V::load(t + i);
            typename V::vm lt = V::cmplt(v, vbest);
            vbest = V::select(lt, v, vbest);
            vidx = V::select(lt, vcur_idx, vidx);
        }
        double lane_best[w > 0 ? w : 1];
        double lane_idx[w > 0 ? w : 1];
        V::store(lane_best, vbest);
        V::store(lane_idx, vidx);
        best = lane_best[0];
        best_idx = static_cast<std::size_t>(lane_idx[0]);
        for (std::size_t j = 1; j < w; ++j) {
            if (lane_best[j] < best ||
                (lane_best[j] == best &&
                 static_cast<std::size_t>(lane_idx[j]) < best_idx)) {
                best = lane_best[j];
                best_idx = static_cast<std::size_t>(lane_idx[j]);
            }
        }
    }
    for (; i < n; ++i) {
        if (t[i] < best) {
            best = t[i];
            best_idx = i;
        }
    }
    return best_idx;
}

/** q[i] = clamp(roundNearest(double(e[i])), [0, top]) (NaN and
 *  negatives to 0); returns the minimum quantized value.  Every
 *  produced value is an exact small double, so the lane-wise then
 *  horizontal minimum equals the scalar running minimum. */
template <typename V>
inline double
quantizeEnergiesT(const float *e, double top, double *q, std::size_t n)
{
    constexpr std::size_t w = V::kWidth;
    const typename V::vd vtop = V::set1(top);
    const typename V::vd vzero = V::set1(0.0);
    typename V::vd vmin = vtop;
    std::size_t i = 0;
    for (; i + w <= n; i += w) {
        typename V::vd r = V::roundNearest(V::loadFtoD(e + i));
        // 0 < r is false for NaN, clamping it to 0 like the scalar
        // quantizer.
        r = V::select(V::cmplt(vzero, r), r, vzero);
        r = V::select(V::cmplt(r, vtop), r, vtop);
        V::store(q + i, r);
        vmin = V::min(vmin, r);
    }
    double lanes[w > 0 ? w : 1];
    V::store(lanes, vmin);
    double e_min = lanes[0];
    for (std::size_t j = 1; j < w; ++j)
        e_min = lanes[j] < e_min ? lanes[j] : e_min;
    for (; i < n; ++i) {
        double r =
            VScalar::roundNearest(static_cast<double>(e[i]));
        r = 0.0 < r ? r : 0.0;
        r = r < top ? r : top;
        q[i] = r;
        e_min = r < e_min ? r : e_min;
    }
    return e_min;
}

/**
 * Fused exponential-draw + binned-race reduction: draw each TTF as
 * -log(u)/rate (vlogNormalCore — uniforms in [2^-53, 1), exactly the
 * expDraw arithmetic, so the bins match a separate expDraw + binning
 * pass bit for bit), quantize it to its 1-based bin — floor(ttf)+1
 * inside the window, t_max at/after the window end (or +inf when
 * drop_truncated, removing the label from contention) — store the
 * bins, and reduce to the minimum bin with its first/last indices,
 * tie count and contender count.  One kernel call and one buffer per
 * pixel: the TTFs are staged in @p bins and quantized in place.
 * (Deliberately two tight loops rather than one fused loop — the log
 * pipeline's table pointers and polynomial constants plus the
 * bin/reduce constants together overflow the vector register file,
 * and the resulting per-iteration spills cost more than the staging
 * store+reload, which stays in L1.)  Every reduced quantity is
 * exact, so all backends agree.  A lone contender (n == 1, half the
 * literal draws once cut-off bites) skips both loops: one scalar draw
 * and bin give the same result.
 */
template <typename V>
inline BinRaceResult
expDrawBinT(const double *u, const double *rates, std::size_t n,
            double t_max, bool drop_truncated, double *bins)
{
    constexpr std::size_t w = V::kWidth;
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const double overflow = drop_truncated ? kInf : t_max;

    if (n == 1) {
        // One contender: the scalar tail's arithmetic, and the result
        // the lane merge below would reach, without its lane set-up
        // and five-way lane store.
        const double tt = -vlogNormalCore<VScalar>(u[0], 0.0) / rates[0];
        const double bin =
            tt < t_max ? VScalar::floor(tt) + 1.0 : overflow;
        bins[0] = bin;
        BinRaceResult r;
        r.bestBin = bin;
        if (bin < kInf) {
            r.tied = 1;
            r.contenders = 1;
        }
        return r;
    }

    // Stage 1: TTFs into the bins buffer (the expDraw arithmetic).
    {
        const typename V::vd zero_bias = V::set1(0.0);
        std::size_t j = 0;
        for (; j + w <= n; j += w) {
            typename V::vd tt =
                V::div(V::neg(vlogNormalCore<V>(V::load(u + j),
                                                zero_bias)),
                       V::load(rates + j));
            V::store(bins + j, tt);
        }
        for (; j < n; ++j)
            bins[j] = -vlogNormalCore<VScalar>(u[j], 0.0) / rates[j];
    }

    // Stage 2: quantize to 1-based bins in place and fold the whole
    // reduction in the same pass, lane-wise: each lane tracks the
    // running minimum of its stride plus — conditioned on it — the
    // tie count, first/last index and contender count, all as exact
    // small integers in doubles.  Branch-free (minimum-bin membership
    // is data-random, so conditional bookkeeping would mispredict on
    // nearly every pixel) and with no movemask round trips — the
    // folds stay in vector registers until one horizontal merge at
    // the end, which combines the lanes exactly like a scalar scan.
    // Lanes whose minimum stayed at +inf carry garbage counts; the
    // merge skips them (their lmin can never equal a finite best).
    const typename V::vd vmax = V::set1(t_max);
    const typename V::vd vover = V::set1(overflow);
    const typename V::vd vone = V::set1(1.0);
    const typename V::vd vinf = V::set1(kInf);
    typename V::vd lmin = vinf;
    typename V::vd cnt = V::set1(0.0);
    typename V::vd lfirst = V::set1(0.0);
    typename V::vd llast = V::set1(0.0);
    typename V::vd fin = V::set1(0.0);
    double idx_seed[w > 0 ? w : 1];
    for (std::size_t j = 0; j < w; ++j)
        idx_seed[j] = static_cast<double>(j);
    typename V::vd vidx = V::load(idx_seed);
    const typename V::vd vstep = V::set1(static_cast<double>(w));
    std::size_t i = 0;
    for (; i + w <= n; i += w) {
        typename V::vd tt = V::load(bins + i);
        typename V::vd bin =
            V::select(V::cmplt(tt, vmax),
                      V::add(V::floor(tt), vone), vover);
        V::store(bins + i, bin);
        typename V::vm m_lt = V::cmplt(bin, lmin);
        typename V::vm m_eq = V::cmpeq(bin, lmin);
        lmin = V::min(bin, lmin);
        cnt = V::select(m_lt, vone,
                        V::add(cnt, V::andm(m_eq, vone)));
        lfirst = V::select(m_lt, vidx, lfirst);
        llast = V::select(V::orm(m_lt, m_eq), vidx, llast);
        fin = V::add(fin, V::andm(V::cmplt(bin, vinf), vone));
        vidx = V::add(vidx, vstep);
    }
    // Scalar tail: the same running-minimum bookkeeping, merged below
    // as one extra "lane".
    double t_best = kInf, t_cnt = 0.0, t_first = 0.0, t_last = 0.0;
    double t_fin = 0.0;
    for (; i < n; ++i) {
        double tt = bins[i];
        double bin =
            tt < t_max ? VScalar::floor(tt) + 1.0 : overflow;
        bins[i] = bin;
        t_fin += bin < kInf ? 1.0 : 0.0;
        if (bin < t_best) {
            t_best = bin;
            t_cnt = 1.0;
            t_first = static_cast<double>(i);
            t_last = static_cast<double>(i);
        } else if (bin == t_best) {
            t_cnt += 1.0;
            t_last = static_cast<double>(i);
        }
    }

    double a_min[w > 0 ? w : 1], a_cnt[w > 0 ? w : 1];
    double a_first[w > 0 ? w : 1], a_last[w > 0 ? w : 1];
    double a_fin[w > 0 ? w : 1];
    V::store(a_min, lmin);
    V::store(a_cnt, cnt);
    V::store(a_first, lfirst);
    V::store(a_last, llast);
    V::store(a_fin, fin);

    BinRaceResult r;
    double best = t_best;
    for (std::size_t j = 0; j < w; ++j)
        best = a_min[j] < best ? a_min[j] : best;
    r.bestBin = best;
    if (!(best < kInf))
        return r; // nothing fired inside the window
    double g_cnt = 0.0, g_first = kInf, g_last = -1.0;
    double g_fin = t_fin;
    for (std::size_t j = 0; j < w; ++j) {
        g_fin += a_fin[j];
        if (a_min[j] == best) {
            g_cnt += a_cnt[j];
            g_first = a_first[j] < g_first ? a_first[j] : g_first;
            g_last = a_last[j] > g_last ? a_last[j] : g_last;
        }
    }
    if (t_best == best) {
        g_cnt += t_cnt;
        g_first = t_first < g_first ? t_first : g_first;
        g_last = t_last > g_last ? t_last : g_last;
    }
    r.first = static_cast<std::uint32_t>(g_first);
    r.last = static_cast<std::uint32_t>(g_last);
    r.tied = static_cast<std::uint32_t>(g_cnt);
    r.contenders = static_cast<std::uint32_t>(g_fin);
    return r;
}

/**
 * The literal RSU draw's stages 1-3 straight to one pixel's firing
 * set: quantize the label energies exactly like quantizeEnergiesT
 * (staged in @p rates), take E_min, and keep, in label order, the
 * labels i whose table index k = q[i] - (subtract_min ? E_min : 0)
 * lies below @p bound, the rate table's positive prefix.  The j-th
 * kept label gets rates[j] = table[k] and labels[j] = i; returns how
 * many were kept.  The left-pack is one branch-free lane-at-a-time
 * pass (each index is stored at the running count, which only a
 * firing label advances), and only the kept labels' table entries
 * are read.  AVX2 serves up to 32 labels from firingRatesAvx2 below
 * and falls back to this form past that.  Every stored value is
 * selected, never computed, so both backends agree bit for bit.
 */
template <typename V>
inline std::size_t
firingRatesT(const float *e, double top, bool subtract_min,
             const double *table, std::size_t bound, std::size_t n,
             double *rates, std::uint32_t *labels)
{
    const double e_min = quantizeEnergiesT<V>(e, top, rates, n);
    const double base = subtract_min ? e_min : 0.0;
    const double fire_below = static_cast<double>(bound);
    std::size_t j = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const double k = rates[i] - base;
        rates[j] = k;
        labels[j] = static_cast<std::uint32_t>(i);
        j += k < fire_below ? 1u : 0u;
    }
    for (std::size_t f = 0; f < j; ++f)
        rates[f] = table[static_cast<std::size_t>(rates[f])];
    return j;
}

/**
 * Fused quantize + race-class pack feeding RaceFastPath's packed
 * lane: quantize one pixel's n <= 16 label energies exactly like
 * quantizeEnergiesT, index the byte table @p cls with
 * q[i] - (subtract_min ? e_min : 0), and pack the three words the
 * lane consumes —
 *   word    per-class label counts, class c's count in byte c;
 *   cw0/cw1 label -> class bytes, label i in byte i (cw0, i < 8)
 *           or byte i - 8 (cw1).
 * Class values must be < 8 so the count bytes cover them.  The
 * quantized indices never materialize in caller-visible memory; the
 * staging buffer lives on the stack (hence the n <= 16 bound).
 * Returns e_min.
 */
template <typename V>
inline double
quantizeClassifyT(const float *e, double top, bool subtract_min,
                  const std::uint8_t *cls, std::size_t n,
                  std::uint64_t &word, std::uint64_t &cw0,
                  std::uint64_t &cw1)
{
    double q[16];
    const double e_min = quantizeEnergiesT<V>(e, top, q, n);
    const double base = subtract_min ? e_min : 0.0;
    word = cw0 = cw1 = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t b = static_cast<std::size_t>(q[i] - base);
        const std::uint64_t c = cls[b];
        word += 1ULL << (8 * c);
        if (i < 8)
            cw0 |= c << (8 * i);
        else
            cw1 |= c << (8 * (i - 8));
    }
    return e_min;
}

/**
 * Fused conditional-energy runs driven by the solvers' 8-bit shadow
 * label plane: for each of @p count pixels, out[p*m + i] =
 * s[i] + pair[left][i] + pair[right][i] + pair[up][i] + pair[down][i]
 * through addRows5T — the identical accumulation (same operand order,
 * same association) as the LabelMap-driven fused path in
 * MrfProblem::conditionalEnergiesRow, so the results are bit-identical
 * to it.  The neighbor labels are single-byte loads at offset
 * p * idx_step from the four base pointers (left/right/up/down are the
 * caller's shadow-plane addresses of the FIRST pixel's neighbors);
 * the singleton base advances by s_step floats per pixel and the
 * output by m floats — the caller compacts a strided color phase into
 * a pixel-major arena.  Interior pixels only: the caller peels row
 * ends and non-4-neighborhood cases.
 */
template <typename V>
inline void
energyRunU8T(const float *s, std::size_t s_step, const float *pair,
             std::size_t m, const std::uint8_t *left,
             const std::uint8_t *right, const std::uint8_t *up,
             const std::uint8_t *down, std::size_t idx_step,
             std::size_t count, float *out)
{
    for (std::size_t p = 0; p < count; ++p) {
        const std::size_t o = p * idx_step;
        addRows5T<V>(s + p * s_step,
                     pair + static_cast<std::size_t>(left[o]) * m,
                     pair + static_cast<std::size_t>(right[o]) * m,
                     pair + static_cast<std::size_t>(up[o]) * m,
                     pair + static_cast<std::size_t>(down[o]) * m,
                     out + p * m, m);
    }
}

/**
 * Gibbs weight plane over a row of pixels: for each pixel p,
 * w[p*m + i] = exp((min_j e[p*m + j] - e[p*m + i]) / temperature).
 * Every pixel's float-min scan and (e_min - e[i]) / T quotients are
 * staged first, then one long vexp batch covers the whole n*m plane,
 * so short per-pixel bursts (m = 16) become one dispatch that keeps
 * the vector pipeline busy.  vexpCore is lane/width invariant, so
 * chunking the plane differently cannot change any lane: a pixel's
 * weights are the same bits whatever n it is batched with, which is
 * what lets the samplers' per-pixel draw (n = 1) and row draw share
 * this one kernel.
 */
template <typename V>
inline void
gibbsWeightsRowT(const float *e, std::size_t n, std::size_t m,
                 double temperature, double *w)
{
    constexpr std::size_t vw = V::kWidth;
    const typename V::vd vt = V::set1(temperature);
    for (std::size_t p = 0; p < n; ++p) {
        const float *ep = e + p * m;
        // Same running-minimum order as the scalar sampler's std::min
        // scan (first element seeds, ties keep the earlier value).
        float e_min = ep[0];
        for (std::size_t i = 1; i < m; ++i)
            e_min = ep[i] < e_min ? ep[i] : e_min;
        const double dmin = static_cast<double>(e_min);
        double *wp = w + p * m;
        const typename V::vd vmin = V::set1(dmin);
        std::size_t i = 0;
        for (; i + vw <= m; i += vw)
            V::store(wp + i,
                     V::div(V::sub(vmin, V::loadFtoD(ep + i)), vt));
        for (; i < m; ++i)
            wp[i] =
                (dmin - static_cast<double>(ep[i])) / temperature;
    }
    expBatchT<V>(w, w, n * m);
}

#if defined(RETSIM_SIMD_BACKEND_AVX2)
/*
 * AVX2 16-label core of quantizeClassifyT.  The quantization runs in
 * the float domain: float -> double widening is exact, so both
 * domains round the same real numbers to the same
 * integers (round-half-even either way), and the clamp bounds are
 * exact in float as long as top < 2^24 — the caller gates on that.
 * maxps returns its second operand when either input is NaN, clamping
 * NaN energies to 0 exactly like the scalar quantizer.  The class
 * bytes come through 32-bit gathers, so @p cls must stay readable 4
 * bytes past the largest reachable index (RaceFastPath pads its
 * table); the count word is a variable-shift tree (1 << 8*class
 * summed over u64 lanes — counts stay below 2^8, so byte sums never
 * carry).
 */

/** Byte 0 of each of the 8 dwords of @p v, packed ascending into one
 *  u64 (dword k -> byte k). */
inline std::uint64_t
packLowBytes8Avx2(__m256i v)
{
    const __m256i sel = _mm256_setr_epi8(
        0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
        0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1);
    const __m256i p = _mm256_shuffle_epi8(v, sel);
    return static_cast<std::uint32_t>(_mm256_extract_epi32(p, 0)) |
           (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                _mm256_extract_epi32(p, 4)))
            << 32);
}

inline double
quantizeClassify16Avx2(const float *e, double top, bool subtract_min,
                       const std::uint8_t *cls, std::uint64_t &word,
                       std::uint64_t &cw0, std::uint64_t &cw1)
{
    const __m256 vzero = _mm256_setzero_ps();
    const __m256 vtop = _mm256_set1_ps(static_cast<float>(top));
    constexpr int kRound =
        _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;
    __m256 r0 = _mm256_round_ps(_mm256_loadu_ps(e), kRound);
    __m256 r1 = _mm256_round_ps(_mm256_loadu_ps(e + 8), kRound);
    r0 = _mm256_min_ps(_mm256_max_ps(r0, vzero), vtop);
    r1 = _mm256_min_ps(_mm256_max_ps(r1, vzero), vtop);

    // Horizontal minimum (exact small integers, order-free).
    const __m256 mn2 = _mm256_min_ps(r0, r1);
    __m128 mn = _mm_min_ps(_mm256_castps256_ps128(mn2),
                           _mm256_extractf128_ps(mn2, 1));
    mn = _mm_min_ps(mn, _mm_movehl_ps(mn, mn));
    mn = _mm_min_ss(mn, _mm_shuffle_ps(mn, mn, 1));
    const float e_min = _mm_cvtss_f32(mn);

    __m256i i0 = _mm256_cvtps_epi32(r0);
    __m256i i1 = _mm256_cvtps_epi32(r1);
    if (subtract_min) {
        const __m256i b =
            _mm256_set1_epi32(static_cast<int>(e_min));
        i0 = _mm256_sub_epi32(i0, b);
        i1 = _mm256_sub_epi32(i1, b);
    }

    // Masked gather with a defined source: same op, but GCC's
    // maskless wrapper feeds an uninitialized register to the
    // builtin and trips -Wmaybe-uninitialized.
    const int *clsw = reinterpret_cast<const int *>(cls);
    const __m256i zero = _mm256_setzero_si256();
    const __m256i all = _mm256_set1_epi32(-1);
    const __m256i bytemask = _mm256_set1_epi32(0xff);
    const __m256i c0 = _mm256_and_si256(
        _mm256_mask_i32gather_epi32(zero, clsw, i0, all, 1),
        bytemask);
    const __m256i c1 = _mm256_and_si256(
        _mm256_mask_i32gather_epi32(zero, clsw, i1, all, 1),
        bytemask);

    // cw words: keep byte 0 of each dword, compacted per 128-bit
    // lane, then spliced from dword 0 of each lane.
    cw0 = packLowBytes8Avx2(c0);
    cw1 = packLowBytes8Avx2(c1);

    const __m256i one = _mm256_set1_epi64x(1);
    const __m256i s0 = _mm256_slli_epi32(c0, 3);
    const __m256i s1 = _mm256_slli_epi32(c1, 3);
    const __m256i acc = _mm256_add_epi64(
        _mm256_add_epi64(
            _mm256_sllv_epi64(one, _mm256_cvtepu32_epi64(
                                       _mm256_castsi256_si128(s0))),
            _mm256_sllv_epi64(
                one, _mm256_cvtepu32_epi64(
                         _mm256_extracti128_si256(s0, 1)))),
        _mm256_add_epi64(
            _mm256_sllv_epi64(one, _mm256_cvtepu32_epi64(
                                       _mm256_castsi256_si128(s1))),
            _mm256_sllv_epi64(
                one, _mm256_cvtepu32_epi64(
                         _mm256_extracti128_si256(s1, 1)))));
    __m128i a = _mm_add_epi64(_mm256_castsi256_si128(acc),
                              _mm256_extracti128_si256(acc, 1));
    a = _mm_add_epi64(a, _mm_unpackhi_epi64(a, a));
    word = static_cast<std::uint64_t>(_mm_cvtsi128_si64(a));
    return static_cast<double>(e_min);
}

/** Lane lists of the 8-lane masks: nibble i of row b holds the lane of
 *  b's i-th set bit, so row b is the dword permute that left-packs
 *  those lanes. */
struct PackNibblesAvx2
{
    std::uint32_t row[256];
};

constexpr PackNibblesAvx2
makePackNibblesAvx2()
{
    PackNibblesAvx2 t{};
    for (unsigned b = 0; b < 256; ++b) {
        unsigned out = 0;
        for (unsigned l = 0; l < 8; ++l)
            if ((b >> l) & 1)
                t.row[b] |= l << (4 * out++);
    }
    return t;
}

inline constexpr PackNibblesAvx2 kPackNibblesAvx2 = makePackNibblesAvx2();

/*
 * AVX2 core of firingRatesT for n <= 8 * C labels and top < 2^24 (the
 * caller gates on both).  The energies are quantized in the float
 * domain, exactly as in quantizeClassify16Avx2, and stay in C
 * registers through E_min and the firing test.  Each 8-lane chunk is
 * then left-packed by one dword permute whose lane list comes from
 * kPackNibblesAvx2, into stack buffers, so the caller's buffers need
 * no room past n.
 */
template <int C>
inline std::size_t
firingRatesAvx2(const float *e, double top, bool subtract_min,
                const double *table, std::size_t bound, std::size_t n,
                double *rates, std::uint32_t *labels)
{
    const __m256 vtop = _mm256_set1_ps(static_cast<float>(top));
    const __m256 vzero = _mm256_setzero_ps();
    const __m256i iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    constexpr int kRound = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;
    const int ni = static_cast<int>(n);
    __m256 q[C];
    __m256 vmin = vtop;
    for (int c = 0; c < C; ++c) {
        // Lanes past n load nothing and hold top, which leaves E_min
        // alone; maxps returns its second operand for a NaN, clamping
        // NaN energies to 0 like the scalar quantizer.
        const __m256i live =
            _mm256_cmpgt_epi32(_mm256_set1_epi32(ni - 8 * c), iota);
        const float *chunk = e + std::min<std::size_t>(8 * c, n);
        __m256 r =
            _mm256_round_ps(_mm256_maskload_ps(chunk, live), kRound);
        r = _mm256_min_ps(_mm256_max_ps(r, vzero), vtop);
        q[c] = _mm256_blendv_ps(vtop, r, _mm256_castsi256_ps(live));
        vmin = _mm256_min_ps(vmin, q[c]);
    }
    __m128 mn = _mm_min_ps(_mm256_castps256_ps128(vmin),
                           _mm256_extractf128_ps(vmin, 1));
    mn = _mm_min_ps(mn, _mm_movehl_ps(mn, mn));
    mn = _mm_min_ss(mn, _mm_shuffle_ps(mn, mn, 1));
    const __m256 base = subtract_min ? _mm256_broadcastss_ps(mn) : vzero;
    const __m256 vbound = _mm256_set1_ps(static_cast<float>(bound));
    const __m256i shifts =
        _mm256_setr_epi32(0, 4, 8, 12, 16, 20, 24, 28);
    const __m256i seven = _mm256_set1_epi32(7);
    alignas(32) std::int32_t kept[8 * C + 8];
    alignas(32) std::int32_t kept_labels[8 * C + 8];
    std::size_t j = 0;
    for (int c = 0; c < C; ++c) {
        const __m256 k = _mm256_sub_ps(q[c], base);
        const int rest = ni - 8 * c;
        const unsigned live =
            rest >= 8 ? 0xffu : rest > 0 ? (1u << rest) - 1u : 0u;
        const unsigned bits =
            static_cast<unsigned>(_mm256_movemask_ps(
                _mm256_cmp_ps(k, vbound, _CMP_LT_OQ))) &
            live;
        const __m256i perm = _mm256_and_si256(
            _mm256_srlv_epi32(_mm256_set1_epi32(static_cast<int>(
                                  kPackNibblesAvx2.row[bits])),
                              shifts),
            seven);
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(kept + j),
            _mm256_permutevar8x32_epi32(_mm256_cvttps_epi32(k), perm));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(kept_labels + j),
            _mm256_permutevar8x32_epi32(
                _mm256_add_epi32(iota, _mm256_set1_epi32(8 * c)), perm));
        j += static_cast<std::size_t>(std::popcount(bits));
    }
    for (std::size_t f = 0; f < j; ++f) {
        rates[f] = table[kept[f]];
        labels[f] = static_cast<std::uint32_t>(kept_labels[f]);
    }
    return j;
}
#endif // RETSIM_SIMD_BACKEND_AVX2

} // namespace detail
} // namespace simd
} // namespace retsim

#endif // RETSIM_SIMD_VECMATH_HH
