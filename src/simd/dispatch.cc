/**
 * Runtime backend dispatch for the SIMD layer.
 *
 * Resolution order for the active backend:
 *   1. the last setBackend() call (CLI --simd= flags end up here),
 *   2. the RETSIM_SIMD environment variable,
 *   3. runtime CPU feature detection over the compiled-in backends,
 *   4. the scalar fallback.
 * A request that cannot be honored (backend not compiled in, or the
 * CPU lacks the ISA) logs a warning to stderr and falls back — it
 * never aborts, because every backend computes identical results and
 * degrading to scalar is always safe.
 */

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "simd/tables.hh"

namespace retsim {
namespace simd {

namespace {

bool
cpuSupports(Backend b)
{
    switch (b) {
    case Backend::Scalar:
        return true;
    case Backend::Sse42:
#if defined(__x86_64__) || defined(__i386__)
        return __builtin_cpu_supports("sse4.2") != 0;
#else
        return false;
#endif
    case Backend::Avx2:
#if defined(__x86_64__) || defined(__i386__)
        return __builtin_cpu_supports("avx2") != 0;
#else
        return false;
#endif
    case Backend::Neon:
#if defined(__aarch64__)
        return true; // AdvSIMD is AArch64 baseline.
#else
        return false;
#endif
    }
    return false;
}

const KernelTable *
tableIfRunnable(Backend b)
{
    if (!cpuSupports(b))
        return nullptr;
    switch (b) {
    case Backend::Scalar:
        return &detail::tableScalar();
    case Backend::Sse42:
#if defined(RETSIM_SIMD_HAVE_SSE42)
        return &detail::tableSse42();
#else
        return nullptr;
#endif
    case Backend::Avx2:
#if defined(RETSIM_SIMD_HAVE_AVX2)
        return &detail::tableAvx2();
#else
        return nullptr;
#endif
    case Backend::Neon:
#if defined(RETSIM_SIMD_HAVE_NEON)
        return &detail::tableNeon();
#else
        return nullptr;
#endif
    }
    return nullptr;
}

const KernelTable &
bestTable()
{
    // Widest first; tableIfRunnable() filters both compile-time
    // availability and CPU support.
    for (Backend b : {Backend::Avx2, Backend::Neon, Backend::Sse42}) {
        if (const KernelTable *t = tableIfRunnable(b))
            return *t;
    }
    return detail::tableScalar();
}

/** Parse an override spec; returns the resolved table (with stderr
 *  warnings on fallback) or null for an unrecognized spec. */
const KernelTable *
resolveSpec(const char *spec)
{
    if (std::strcmp(spec, "auto") == 0)
        return &bestTable();
    Backend want;
    if (std::strcmp(spec, "off") == 0 ||
        std::strcmp(spec, "scalar") == 0)
        want = Backend::Scalar;
    else if (std::strcmp(spec, "sse42") == 0)
        want = Backend::Sse42;
    else if (std::strcmp(spec, "avx2") == 0)
        want = Backend::Avx2;
    else if (std::strcmp(spec, "neon") == 0)
        want = Backend::Neon;
    else
        return nullptr;
    if (const KernelTable *t = tableIfRunnable(want))
        return t;
    std::fprintf(stderr,
                 "retsim: SIMD backend '%s' is not available on this "
                 "build/CPU; falling back to scalar\n",
                 spec);
    return &detail::tableScalar();
}

std::atomic<const KernelTable *> g_active{nullptr};

const KernelTable &
initialTable()
{
    const char *env = std::getenv("RETSIM_SIMD");
    if (env != nullptr && env[0] != '\0') { // empty = no override
        if (const KernelTable *t = resolveSpec(env))
            return *t;
        std::fprintf(stderr,
                     "retsim: ignoring unrecognized RETSIM_SIMD='%s' "
                     "(want off|scalar|sse42|avx2|neon|auto)\n",
                     env);
    }
    return bestTable();
}

} // namespace

const KernelTable &
kernels()
{
    const KernelTable *t = g_active.load(std::memory_order_acquire);
    if (t == nullptr) {
        // Benign race: initialTable() is deterministic within a
        // process, so concurrent first callers store the same value.
        t = &initialTable();
        g_active.store(t, std::memory_order_release);
    }
    return *t;
}

Backend
activeBackend()
{
    return kernels().backend;
}

const char *
backendName(Backend b)
{
    switch (b) {
    case Backend::Scalar:
        return "scalar";
    case Backend::Sse42:
        return "sse42";
    case Backend::Avx2:
        return "avx2";
    case Backend::Neon:
        return "neon";
    }
    return "unknown";
}

Backend
setBackend(const std::string &spec)
{
    const KernelTable *t = resolveSpec(spec.c_str());
    if (t == nullptr) {
        std::fprintf(stderr,
                     "retsim: ignoring unrecognized SIMD backend "
                     "'%s' (want off|scalar|sse42|avx2|neon|auto)\n",
                     spec.c_str());
        t = &kernels();
    }
    g_active.store(t, std::memory_order_release);
    return t->backend;
}

std::vector<Backend>
runnableBackends()
{
    std::vector<Backend> out{Backend::Scalar};
    for (Backend b : {Backend::Sse42, Backend::Avx2, Backend::Neon}) {
        if (tableIfRunnable(b) != nullptr)
            out.push_back(b);
    }
    return out;
}

const KernelTable &
kernelsFor(Backend b)
{
    if (const KernelTable *t = tableIfRunnable(b))
        return *t;
    return detail::tableScalar();
}

} // namespace simd
} // namespace retsim
