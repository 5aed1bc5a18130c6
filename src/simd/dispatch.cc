/**
 * Runtime backend dispatch for the SIMD layer.
 *
 * Resolution order for the active backend:
 *   1. the last setBackend() call (CLI --simd= flags end up here),
 *   2. the RETSIM_SIMD environment variable,
 *   3. runtime CPU feature detection: AVX2 when it is compiled in
 *      (x86-64 with RETSIM_SIMD=ON) and the CPU has it,
 *   4. the scalar fallback.
 * Accepted specs: off|scalar|avx2|auto.  A request that cannot be
 * honored (AVX2 not compiled in, or the CPU lacks it) logs a warning
 * to stderr and falls back — it never aborts, because both backends
 * compute identical results and degrading to scalar is always safe.
 */

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "simd/tables.hh"

namespace retsim {
namespace simd {

namespace {

/** The table of @p b if it is compiled in and this CPU can run it,
 *  else null. */
const KernelTable *
tableIfRunnable(Backend b)
{
    switch (b) {
    case Backend::Scalar:
        return &detail::tableScalar();
    case Backend::Avx2:
#if defined(RETSIM_SIMD_HAVE_AVX2)
        if (__builtin_cpu_supports("avx2") != 0)
            return &detail::tableAvx2();
#endif
        return nullptr;
    }
    return nullptr;
}

const KernelTable &
bestTable()
{
    if (const KernelTable *t = tableIfRunnable(Backend::Avx2))
        return *t;
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
    else if (std::strcmp(spec, "avx2") == 0)
        want = Backend::Avx2;
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
                     "(want off|scalar|avx2|auto)\n",
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
    case Backend::Avx2:
        return "avx2";
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
                     "'%s' (want off|scalar|avx2|auto)\n",
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
    if (tableIfRunnable(Backend::Avx2) != nullptr)
        out.push_back(Backend::Avx2);
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
