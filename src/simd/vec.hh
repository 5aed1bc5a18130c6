/**
 * @file
 * Portable fixed-width vector backends (retsim::simd).
 *
 * Each backend is a stateless tag type exposing the same static
 * operation set over its native register width: IEEE double lanes
 * (`vd`), their 64-bit integer bit images (`vi`), comparison masks
 * (`vm`) and a float lane type (`vf`) for the energy-plane kernel.
 * The vecmath kernels (vecmath.hh) are templated over a backend, so
 * one algorithm definition produces every ISA variant — and because
 * every operation is an exact IEEE-754 primitive (add/sub/mul/div,
 * bit manipulation, round-to-nearest), the lanes of every backend
 * compute bit-identical results to the scalar backend.  That property
 * is the repo's reproducibility contract and is enforced by
 * tests/vecmath_test.cc.
 *
 * Bit-exactness ground rules (deviations break the contract):
 *  - no FMA, anywhere: a fused multiply-add rounds once where mul+add
 *    rounds twice.  The intrinsics used here never contract; the
 *    scalar backend's plain expressions are protected by compiling
 *    every TU that instantiates it with -ffp-contract=off (see
 *    src/simd/CMakeLists.txt).
 *  - no reassociation: templated kernels fix the association order.
 *  - no approximate ops (rcp/rsqrt); division is the IEEE primitive.
 *
 * Only the per-backend TUs in src/simd include this header; the rest
 * of the repo goes through the dispatched entry points in kernels.hh.
 */

#ifndef RETSIM_SIMD_VEC_HH
#define RETSIM_SIMD_VEC_HH

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

#if defined(RETSIM_SIMD_BACKEND_AVX2)
#include <immintrin.h>
#endif

namespace retsim {
namespace simd {

/**
 * Scalar backend: one lane, plain C++ arithmetic.  This is both the
 * portable fallback and the reference the vector backends must match
 * bit for bit.  std::nearbyint relies on the default round-to-nearest
 * rounding mode, matching the hard-coded rounding of the vector
 * round instructions.
 */
struct VScalar
{
    static constexpr int kWidth = 1;
    static constexpr int kWidthF = 1;
    using vd = double;
    using vi = std::uint64_t;
    using vm = bool;
    using vf = float;

    static vd set1(double v) { return v; }
    static vd load(const double *p) { return *p; }
    static void store(double *p, vd v) { *p = v; }

    static vd add(vd a, vd b) { return a + b; }
    static vd sub(vd a, vd b) { return a - b; }
    static vd mul(vd a, vd b) { return a * b; }
    static vd div(vd a, vd b) { return a / b; }
    static vd neg(vd a) { return -a; }
    static vd min(vd a, vd b) { return b < a ? b : a; }
    static vd max(vd a, vd b) { return a < b ? b : a; }
    static vd roundNearest(vd a) { return std::nearbyint(a); }
    static vd floor(vd a) { return std::floor(a); }

    static vi toBits(vd a) { return std::bit_cast<std::uint64_t>(a); }
    static vd fromBits(vi a) { return std::bit_cast<double>(a); }
    static vi set1i(std::uint64_t v) { return v; }
    static vi addi(vi a, vi b) { return a + b; }
    static vi subi(vi a, vi b) { return a - b; }
    static vi andi(vi a, vi b) { return a & b; }
    static vi ori(vi a, vi b) { return a | b; }
    static vi xori(vi a, vi b) { return a ^ b; }
    template <int N> static vi shli(vi a) { return a << N; }
    template <int N> static vi shri(vi a) { return a >> N; }

    static vm cmplt(vd a, vd b) { return a < b; }
    static vm cmple(vd a, vd b) { return a <= b; }
    static vm cmpeq(vd a, vd b) { return a == b; }
    /** a when mask, else b. */
    static vd select(vm m, vd a, vd b) { return m ? a : b; }
    /** Bit i set iff lane i's mask is true. */
    static int moveMask(vm m) { return m ? 1 : 0; }
    /** Lanewise v where the mask is set, +0.0 elsewhere. */
    static vd andm(vm m, vd v) { return m ? v : 0.0; }
    static vm orm(vm a, vm b) { return a || b; }
    /** Lanewise table load p[idx]; every idx lane must be a valid
     *  index into p. */
    static vd gather(const double *p, vi idx) { return p[idx]; }

    static vf loadF(const float *p) { return *p; }
    static void storeF(float *p, vf v) { *p = v; }
    static vf addF(vf a, vf b) { return a + b; }
    /** Widen kWidth floats starting at p to double lanes. */
    static vd loadFtoD(const float *p)
    {
        return static_cast<double>(*p);
    }
};

#if defined(RETSIM_SIMD_BACKEND_AVX2)
/** AVX2 backend: 4 double lanes / 8 float lanes.  No FMA even where
 *  the CPU has it — see the bit-exactness ground rules above. */
struct VAvx2
{
    static constexpr int kWidth = 4;
    static constexpr int kWidthF = 8;
    using vd = __m256d;
    using vi = __m256i;
    using vm = __m256d;
    using vf = __m256;

    static vd set1(double v) { return _mm256_set1_pd(v); }
    static vd load(const double *p) { return _mm256_loadu_pd(p); }
    static void store(double *p, vd v) { _mm256_storeu_pd(p, v); }

    static vd add(vd a, vd b) { return _mm256_add_pd(a, b); }
    static vd sub(vd a, vd b) { return _mm256_sub_pd(a, b); }
    static vd mul(vd a, vd b) { return _mm256_mul_pd(a, b); }
    static vd div(vd a, vd b) { return _mm256_div_pd(a, b); }
    static vd neg(vd a)
    {
        return _mm256_xor_pd(a, _mm256_set1_pd(-0.0));
    }
    static vd min(vd a, vd b) { return _mm256_min_pd(b, a); }
    static vd max(vd a, vd b) { return _mm256_max_pd(b, a); }
    static vd roundNearest(vd a)
    {
        return _mm256_round_pd(a,
                               _MM_FROUND_TO_NEAREST_INT |
                                   _MM_FROUND_NO_EXC);
    }
    static vd floor(vd a)
    {
        return _mm256_round_pd(a, _MM_FROUND_TO_NEG_INF |
                                      _MM_FROUND_NO_EXC);
    }

    static vi toBits(vd a) { return _mm256_castpd_si256(a); }
    static vd fromBits(vi a) { return _mm256_castsi256_pd(a); }
    static vi set1i(std::uint64_t v)
    {
        return _mm256_set1_epi64x(static_cast<long long>(v));
    }
    static vi addi(vi a, vi b) { return _mm256_add_epi64(a, b); }
    static vi subi(vi a, vi b) { return _mm256_sub_epi64(a, b); }
    static vi andi(vi a, vi b) { return _mm256_and_si256(a, b); }
    static vi ori(vi a, vi b) { return _mm256_or_si256(a, b); }
    static vi xori(vi a, vi b) { return _mm256_xor_si256(a, b); }
    template <int N> static vi shli(vi a)
    {
        return _mm256_slli_epi64(a, N);
    }
    template <int N> static vi shri(vi a)
    {
        return _mm256_srli_epi64(a, N);
    }

    static vm cmplt(vd a, vd b)
    {
        return _mm256_cmp_pd(a, b, _CMP_LT_OQ);
    }
    static vm cmple(vd a, vd b)
    {
        return _mm256_cmp_pd(a, b, _CMP_LE_OQ);
    }
    static vm cmpeq(vd a, vd b)
    {
        return _mm256_cmp_pd(a, b, _CMP_EQ_OQ);
    }
    static vd select(vm m, vd a, vd b)
    {
        return _mm256_blendv_pd(b, a, m);
    }
    static int moveMask(vm m) { return _mm256_movemask_pd(m); }
    static vd andm(vm m, vd v) { return _mm256_and_pd(m, v); }
    static vm orm(vm a, vm b) { return _mm256_or_pd(a, b); }
    static vd gather(const double *p, vi idx)
    {
        return _mm256_i64gather_pd(p, idx, 8);
    }

    static vf loadF(const float *p) { return _mm256_loadu_ps(p); }
    static void storeF(float *p, vf v) { _mm256_storeu_ps(p, v); }
    static vf addF(vf a, vf b) { return _mm256_add_ps(a, b); }
    static vd loadFtoD(const float *p)
    {
        return _mm256_cvtps_pd(_mm_loadu_ps(p));
    }
};
#endif // RETSIM_SIMD_BACKEND_AVX2

} // namespace simd
} // namespace retsim

#endif // RETSIM_SIMD_VEC_HH
