/**
 * @file
 * Internal cross-TU table accessors for the SIMD layer.  Each backend
 * TU (kernels_<backend>.cc) defines its accessor; dispatch.cc sees
 * tableAvx2() only when RETSIM_SIMD_HAVE_AVX2 is set (by
 * src/simd/CMakeLists.txt alongside the file's ISA flag).
 * Not installed; include only from src/simd.
 */

#ifndef RETSIM_SIMD_TABLES_HH
#define RETSIM_SIMD_TABLES_HH

#include "simd/kernels.hh"

namespace retsim {
namespace simd {
namespace detail {

const KernelTable &tableScalar();
#if defined(RETSIM_SIMD_HAVE_AVX2)
const KernelTable &tableAvx2();
#endif

} // namespace detail
} // namespace simd
} // namespace retsim

#endif // RETSIM_SIMD_TABLES_HH
