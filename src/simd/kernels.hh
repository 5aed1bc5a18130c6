/**
 * @file
 * Public entry points of the SIMD layer.
 *
 * The rest of the repo never touches vec.hh/vecmath.hh directly; it
 * calls the dispatched batch kernels through `kernels()` and the
 * scalar transcendentals `slog`/`sexp`.  Both route into the same
 * templated vecmath cores, so a scalar `sexp(x)` and lane 3 of a
 * dispatched `expBatch` are bit-identical — that equivalence is what
 * lets the batched row samplers reproduce the per-pixel scalar
 * samplers byte for byte regardless of the active backend.
 *
 * Two backends: the scalar reference, built everywhere, and AVX2,
 * built on x86-64 unless CMake `RETSIM_SIMD=OFF`.  Dispatch:
 * `activeBackend()` is resolved once on first use from (in priority
 * order) a `setBackend()` override, the `RETSIM_SIMD` environment
 * variable (`off|scalar|avx2|auto`), and runtime CPU feature
 * detection, falling back to the scalar backend.  A backend not
 * compiled in is never selected; requesting it explicitly falls back
 * to scalar with a warning, and an unrecognized spec is ignored with
 * a warning.  `kernelsFor()` exposes every compiled backend so the
 * equivalence tests can compare them without re-execing.
 */

#ifndef RETSIM_SIMD_KERNELS_HH
#define RETSIM_SIMD_KERNELS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace retsim {
namespace simd {

enum class Backend {
    Scalar,
    Avx2,
};

/** Result of the binned-race reduction over one pixel's TTFs.  All
 *  fields are exact integers (bestBin as an exact small double), so
 *  every backend produces identical values. */
struct BinRaceResult
{
    double bestBin = 0.0; ///< minimum bin; meaningless if no contender
    std::uint32_t first = 0; ///< lowest index in the minimum bin
    std::uint32_t last = 0;  ///< highest index in the minimum bin
    std::uint32_t tied = 0;  ///< indices sharing the minimum bin
    std::uint32_t contenders = 0; ///< indices firing within the window
};

/** Dispatched batch kernels; every pointer is non-null. */
struct KernelTable
{
    Backend backend;
    const char *name;

    /** out[i] = exp(x[i]) (retsim vecmath, not libm). */
    void (*expBatch)(const double *x, double *out, std::size_t n);
    /** out[i] = -log(u[i]) / rates[i]: exponential TTF draws.
     *  In-place conversion (u == out) is supported — each chunk is
     *  loaded before its result is stored. */
    void (*expDraw)(const double *u, const double *rates, double *out,
                    std::size_t n);
    /** out[i] = s[i]+a[i]+b[i]+c[i]+d[i], fixed association order:
     *  conditional-energy plane accumulation. */
    void (*addRows5)(const float *s, const float *a, const float *b,
                     const float *c, const float *d, float *out,
                     std::size_t n);
    /** Index of the first strict minimum of t[0..n), n >= 1: the
     *  deterministic-draw TTF race winner. */
    std::size_t (*argmin)(const double *t, std::size_t n);
    /** q[i] = clamp(roundNearest(double(e[i])), [0, top]) with NaN
     *  and negatives clamping to 0; returns the minimum quantized
     *  value (top when n == 0).  The RSU energy quantization stage,
     *  value-identical to util::quantizeUnsigned per element. */
    double (*quantizeEnergies)(const float *e, double top, double *q,
                               std::size_t n);
    /** The fused binned race: draw ttf[i] = -log(u[i]) / rates[i]
     *  (same arithmetic as expDraw; the raw TTFs are never
     *  materialized), quantize to 1-based bins — bins[i] =
     *  floor(ttf) + 1 when ttf < t_max, else t_max (or +inf when
     *  drop_truncated, excluding the label) — and reduce to the
     *  minimum bin, its first/last indices, tie count and contender
     *  count.  Uniform domain as for expDraw: [2^-53, 1). */
    BinRaceResult (*expDrawBin)(const double *u, const double *rates,
                                std::size_t n, double t_max,
                                bool drop_truncated, double *bins);
    /** The literal RSU draw's stages 1-3 straight to one pixel's
     *  firing set: quantize e exactly like quantizeEnergies (staged in
     *  rates), take E_min, and keep, in label order, the labels i whose
     *  table index k = q[i] - (subtract_min ? E_min : 0) lies below
     *  bound — the rate table's positive prefix — writing rates[j] =
     *  table[k] and labels[j] = i for the j-th kept label.  Returns
     *  the firing count.  rates and labels hold n entries each;
     *  table must cover every index up to top.  Only the kept labels'
     *  table entries are read. */
    std::size_t (*firingRates)(const float *e, double top,
                               bool subtract_min, const double *table,
                               std::size_t bound, std::size_t n,
                               double *rates, std::uint32_t *labels);
    /** Fused quantizeEnergies + race-class pack for the categorical
     *  fast path over a row of pixels (pixel p's m <= 16 label
     *  energies at e + p*m): quantize exactly like quantizeEnergies,
     *  index cls[] with q - (subtract_min ? pixel minimum : 0), and
     *  pack per pixel the packed-lane words — out[3p] (class c's
     *  label count in byte c) and out[3p+1]/out[3p+2] (label i's
     *  class in byte i; labels 8.. in the second word).  One
     *  dispatch per row keeps the vector constants live across
     *  pixels.  cls values must be < 8, and the table must stay
     *  readable 4 bytes past the largest reachable index (vector
     *  backends gather 32-bit words). */
    void (*quantizeClassifyRow)(const float *e, double top,
                                bool subtract_min,
                                const std::uint8_t *cls,
                                std::size_t n, std::size_t m,
                                std::uint64_t *out);
    /** Fused conditional-energy runs over the solvers' 8-bit shadow
     *  label plane: out[p*m+i] = s[p*s_step+i] + the four pairwise
     *  rows selected by single-byte neighbor loads at p*idx_step from
     *  left/right/up/down.  Same accumulation order as addRows5, so
     *  bit-identical to the LabelMap-driven fused energy path.
     *  Interior pixels only (the caller peels row ends). */
    void (*energyRunU8)(const float *s, std::size_t s_step,
                        const float *pair, std::size_t m,
                        const std::uint8_t *left,
                        const std::uint8_t *right,
                        const std::uint8_t *up,
                        const std::uint8_t *down,
                        std::size_t idx_step, std::size_t count,
                        float *out);
    /** Gibbs weight plane over a row of pixels: w[p*m+i] =
     *  exp((min_j e[p*m+j] - e[p*m+i]) / T), float energies widened
     *  to double.  Per pixel a float-min scan and the staged
     *  (e_min - e) / T quotients, then one long vexp batch over the
     *  whole n*m plane; vexp is lane/width invariant, so any n gives
     *  every pixel the same weights (n = 1 is the per-pixel draw). */
    void (*gibbsWeightsRow)(const float *e, std::size_t n,
                            std::size_t m, double temperature,
                            double *w);
};

/** The kernel table for the active backend (resolved on first use). */
const KernelTable &kernels();

/** Currently active backend. */
Backend activeBackend();

/** Human-readable name of a backend ("scalar" or "avx2"). */
const char *backendName(Backend b);

/**
 * Force a backend.  "auto" selects the best available level; a named
 * backend that is not compiled in or cannot run falls back to scalar;
 * an unrecognized spec is ignored with a warning and the active
 * backend stays.  Returns the backend actually selected.  Accepts the
 * same spellings as the RETSIM_SIMD env var: off|scalar|avx2|auto.
 * Not thread-safe against concurrent kernel use; call it at startup.
 */
Backend setBackend(const std::string &spec);

/** All backends compiled into this binary and runnable on this CPU
 *  (always includes Scalar).  For backend-equivalence tests. */
std::vector<Backend> runnableBackends();

/** Kernel table of a specific runnable backend (for tests). */
const KernelTable &kernelsFor(Backend b);

/** Scalar log through the retsim vecmath core — use instead of
 *  std::log anywhere output feeds the reproducibility contract. */
double slog(double x);

/** Scalar exp through the retsim vecmath core. */
double sexp(double x);

} // namespace simd
} // namespace retsim

#endif // RETSIM_SIMD_KERNELS_HH
