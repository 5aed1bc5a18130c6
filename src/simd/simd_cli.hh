/**
 * @file
 * Glue between util::CliArgs and the SIMD dispatcher: the
 * `--simd=off|scalar|avx2|auto` override flag for debugging dispatch
 * issues.  Header-only so simd does not link retsim_util —
 * the caller already does.  Usage:
 *
 *     util::CliArgs args(argc, argv);
 *     simd::Backend backend = simd::backendFromCli(args);
 *     // kernels() now serves the selected backend.
 *
 * Without the flag, dispatch falls through to the RETSIM_SIMD env
 * var and then runtime CPU detection (see kernels.hh).
 */

#ifndef RETSIM_SIMD_SIMD_CLI_HH
#define RETSIM_SIMD_SIMD_CLI_HH

#include <string>

#include "simd/kernels.hh"
#include "util/cli.hh"

namespace retsim {
namespace simd {

/**
 * Apply `--simd=<spec>` when present and return the backend that is
 * actually active afterwards (the request may fall back to scalar if
 * the build or CPU can't honor it).
 */
inline Backend
backendFromCli(const util::CliArgs &args)
{
    std::string spec = args.getString("simd", "");
    if (!spec.empty())
        return setBackend(spec);
    return activeBackend();
}

} // namespace simd
} // namespace retsim

#endif // RETSIM_SIMD_SIMD_CLI_HH
