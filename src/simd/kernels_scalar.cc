/**
 * Scalar-backend kernel table and the scalar transcendental entry
 * points (slog/sexp).  This TU is the portable reference the AVX2
 * backend must match bit for bit; it is compiled with
 * -ffp-contract=off so the plain C++ expressions of VScalar cannot be
 * contracted into FMAs (see src/simd/CMakeLists.txt).
 */

#include "simd/tables.hh"
#include "simd/vecmath.hh"

namespace retsim {
namespace simd {

namespace {

void
expBatch(const double *x, double *out, std::size_t n)
{
    detail::expBatchT<VScalar>(x, out, n);
}

void
expDraw(const double *u, const double *rates, double *out,
        std::size_t n)
{
    detail::expDrawT<VScalar>(u, rates, out, n);
}

void
addRows5(const float *s, const float *a, const float *b,
         const float *c, const float *d, float *out, std::size_t n)
{
    detail::addRows5T<VScalar>(s, a, b, c, d, out, n);
}

std::size_t
argmin(const double *t, std::size_t n)
{
    return detail::argminT<VScalar>(t, n);
}

double
quantizeEnergies(const float *e, double top, double *q, std::size_t n)
{
    return detail::quantizeEnergiesT<VScalar>(e, top, q, n);
}

BinRaceResult
expDrawBin(const double *u, const double *rates, std::size_t n,
           double t_max, bool drop_truncated, double *bins)
{
    return detail::expDrawBinT<VScalar>(u, rates, n, t_max,
                                      drop_truncated, bins);
}

std::size_t
firingRates(const float *e, double top, bool subtract_min,
            const double *table, std::size_t bound, std::size_t n,
            double *rates, std::uint32_t *labels)
{
    return detail::firingRatesT<VScalar>(e, top, subtract_min, table,
                                         bound, n, rates, labels);
}

void
quantizeClassifyRow(const float *e, double top, bool subtract_min,
                    const std::uint8_t *cls, std::size_t n,
                    std::size_t m, std::uint64_t *out)
{
    for (std::size_t p = 0; p < n; ++p)
        detail::quantizeClassifyT<VScalar>(e + p * m, top, subtract_min,
                                           cls, m, out[3 * p], out[3 * p + 1],
                                           out[3 * p + 2]);
}

void
energyRunU8(const float *s, std::size_t s_step, const float *pair,
            std::size_t m, const std::uint8_t *left,
            const std::uint8_t *right, const std::uint8_t *up,
            const std::uint8_t *down, std::size_t idx_step,
            std::size_t count, float *out)
{
    detail::energyRunU8T<VScalar>(s, s_step, pair, m, left, right, up,
                                  down, idx_step, count, out);
}

void
gibbsWeightsRow(const float *e, std::size_t n, std::size_t m,
                double temperature, double *w)
{
    detail::gibbsWeightsRowT<VScalar>(e, n, m, temperature, w);
}

} // namespace

namespace detail {

const KernelTable &
tableScalar()
{
    static const KernelTable t{Backend::Scalar, "scalar",
                               expBatch, expDraw, addRows5, argmin,
                               quantizeEnergies, expDrawBin,
                               firingRates, quantizeClassifyRow,
                               energyRunU8, gibbsWeightsRow};
    return t;
}

} // namespace detail

double
slog(double x)
{
    return detail::vlogCore<VScalar>(x);
}

double
sexp(double x)
{
    return detail::vexpCore<VScalar>(x);
}

} // namespace simd
} // namespace retsim
