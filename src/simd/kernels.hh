/**
 * @file
 * Public entry points of the SIMD layer.
 *
 * The rest of the repo never touches vec.hh/vecmath.hh directly; it
 * calls the dispatched batch kernels through `kernels()` and the
 * scalar transcendentals `slog`/`sexp`.  Both route into the same
 * templated vecmath cores, so a scalar `slog(u)` and lane 3 of a
 * dispatched `logBatch` are bit-identical — that equivalence is what
 * lets the batched row samplers reproduce the per-pixel scalar
 * samplers byte for byte regardless of the active backend.
 *
 * Dispatch: `activeBackend()` is resolved once on first use from (in
 * priority order) a `setBackend()` override, the `RETSIM_SIMD`
 * environment variable (`off|scalar|sse42|avx2|neon|auto`), and
 * runtime CPU feature detection, falling back to the scalar backend.
 * Backends not compiled in (CMake `RETSIM_SIMD=OFF`, or a foreign
 * ISA) are never selected; requesting one explicitly falls back to
 * scalar with a warning, and an unrecognized spec is ignored with a
 * warning.  `kernelsFor()` exposes every compiled backend so the
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
    Sse42,
    Avx2,
    Neon,
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

/**
 * Byte -> class map of a packed-lane rate table encoded as a step
 * function for the gather-free classify kernel: class(b) = base +
 * sum of delta[j] over boundaries with b >= step[j], all arithmetic
 * mod 256.  The RSU rate table is monotone in the quantized energy,
 * so its class map has at most one run per alphabet class (<= 8 runs,
 * <= 7 boundaries); RaceFastPath derives the encoding at bind time
 * and falls back to the table-gather kernel when it doesn't fit.
 * value[0..numValues) lists the classes segment by segment
 * (numValues == numSteps + 1; value[j] is the class of the j-th
 * run) — the count-word pass reads each segment's population off
 * the boundary masks and banks it under value[j].
 */
struct RangeClassifier
{
    std::uint8_t base = 0;      ///< class of byte 0
    std::uint8_t numSteps = 0;  ///< boundaries in step/delta (<= 7)
    std::uint8_t numValues = 0; ///< segments in value (numSteps + 1)
    std::uint8_t step[7] = {};  ///< boundary bytes, strictly ascending
    std::uint8_t delta[7] = {}; ///< class delta (mod 256) per boundary
    std::uint8_t value[8] = {}; ///< class of each segment (< 8)
};

/** Dispatched batch kernels; every pointer is non-null. */
struct KernelTable
{
    Backend backend;
    const char *name;

    /** out[i] = log(x[i]) (retsim vecmath, not libm). */
    void (*logBatch)(const double *x, double *out, std::size_t n);
    /** out[i] = exp(x[i]) (retsim vecmath, not libm). */
    void (*expBatch)(const double *x, double *out, std::size_t n);
    /** out[i] = -log(u[i]) / rates[i]: exponential TTF draws.
     *  In-place conversion (u == out) is supported — each chunk is
     *  loaded before its result is stored. */
    void (*expDraw)(const double *u, const double *rates, double *out,
                    std::size_t n);
    /** out[i] = exp((e_min - e[i]) / temperature), float energies
     *  widened to double: Gibbs weight rows. */
    void (*expWeights)(const float *e, double e_min,
                       double temperature, double *out, std::size_t n);
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
    /** Elementwise half of expDrawBin: draw and bin-quantize without
     *  the per-pixel reduction, so many pixels' draws batch through
     *  one dispatch (one indirect call and one vector tail per batch
     *  instead of per pixel).
     *  bins[i] is bit-identical to expDrawBin's in-place bins output
     *  for the same inputs; a scalar min-scan over a pixel's slice
     *  therefore reproduces its BinRaceResult exactly.  In-place
     *  (u == bins) is supported. */
    void (*ttfBins)(const double *u, const double *rates,
                    std::size_t n, double t_max, bool drop_truncated,
                    double *bins);
    /** out[i] = table[(size_t)(q[i] - e_min)]: the energy-to-rate
     *  table stage.  Every q[i] - e_min must be an exact non-negative
     *  integer below 2^32 indexing into table.  In-place (q == out)
     *  is supported. */
    void (*gatherRates)(const double *q, double e_min,
                        const double *table, double *out,
                        std::size_t n);
    /** Fused quantizeEnergies + gatherRates over one pixel's label
     *  energies: rates[i] = table[q(e[i]) - (subtract_min ? min_j
     *  q(e[j]) : 0)].  Value-identical to calling the two standalone
     *  kernels; one dispatch instead of two on the per-pixel path. */
    void (*quantizeGatherRates)(const float *e, double top,
                                bool subtract_min,
                                const double *table, double *rates,
                                std::size_t n);
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
     *  backends gather 32-bit words).  When @p qpacked is non-null,
     *  pixel p's based quantized bytes are additionally packed into
     *  qpacked[p*q_stride] (labels 0-7, byte i = label i) and
     *  qpacked[p*q_stride + 1] (labels 8+) — the row-cache layout
     *  classifyPackedRow consumes; bytes truncate, so the packed
     *  form is only meaningful when top <= 255. */
    void (*quantizeClassifyRow)(const float *e, double top,
                                bool subtract_min,
                                const std::uint8_t *cls,
                                std::size_t n, std::size_t m,
                                std::uint64_t *out,
                                std::uint64_t *qpacked,
                                std::size_t q_stride);
    /** Re-classify a row of packed-lane pixels from their cached
     *  packed quantized bytes (pixel p's two q words at
     *  qpacked[p*q_stride], layout as emitted by quantizeClassifyRow)
     *  into the same out[3p..3p+2] words — pure integer, and
     *  bit-identical to quantizeClassifyRow's words for the energies
     *  that produced the bytes (top <= 255).  This is the row-cache
     *  classify-hit lane: only the byte -> class table changed since
     *  the bytes were cached, so no float plane is touched. */
    void (*classifyPackedRow)(const std::uint64_t *qpacked,
                              std::size_t q_stride,
                              const std::uint8_t *cls, std::size_t n,
                              std::size_t m, std::uint64_t *out);
    /** classifyPackedRow with the byte -> class table given as a
     *  RangeClassifier step encoding instead of a 256-entry gather
     *  table: bit-identical words whenever the encoding reproduces
     *  the table (RaceFastPath validates that at bind time).  The
     *  x86 backends classify a whole 16-label pixel with a handful
     *  of byte compares — no gathers — which is what makes the
     *  row-cache classify hit cheap. */
    void (*classifyRangeRow)(const RangeClassifier &rc,
                             const std::uint64_t *qpacked,
                             std::size_t q_stride, std::size_t n,
                             std::size_t m, std::uint64_t *out);
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
    /** Fused Gibbs weight plane over a row of pixels: w[p*m+i] =
     *  exp((min_j e[p*m+j] - e[p*m+i]) / T), the per-pixel float-min
     *  scan + expWeights composition staged so one long vexp batch
     *  covers the whole n*m plane.  Bit-identical to n expWeights
     *  calls (vexp is lane/width invariant). */
    void (*gibbsWeightsRow)(const float *e, std::size_t n,
                            std::size_t m, double temperature,
                            double *w);
};

/** The kernel table for the active backend (resolved on first use). */
const KernelTable &kernels();

/** Currently active backend. */
Backend activeBackend();

/** Human-readable name of a backend ("scalar", "sse42", ...). */
const char *backendName(Backend b);

/**
 * Force a backend.  "auto" selects the best available level; a named
 * backend that is not compiled in or cannot run falls back to scalar;
 * an unrecognized spec is ignored with a warning and the active
 * backend stays.  Returns the backend actually selected.  Accepts the
 * same spellings as the RETSIM_SIMD env var:
 * off|scalar|sse42|avx2|neon|auto.  Not thread-safe against
 * concurrent kernel use; call it at startup.
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
