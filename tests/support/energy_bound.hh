/**
 * @file
 * Upper bound on a problem's conditional energies, for the tests that
 * check an application's MRF fits the 8-bit energy stage
 * (Sec. III-C.1 fixes Energy_bits = 8).
 */

#ifndef RETSIM_TESTS_SUPPORT_ENERGY_BOUND_HH
#define RETSIM_TESTS_SUPPORT_ENERGY_BOUND_HH

#include "mrf/problem.hh"

namespace retsim {
namespace mrf {

/**
 * Largest singleton plus the neighborhood's total edge weight times
 * the largest pairwise entry: no labeling's conditional energy at any
 * pixel exceeds it.
 */
double maxConditionalEnergy(const MrfProblem &problem);

} // namespace mrf
} // namespace retsim

#endif // RETSIM_TESTS_SUPPORT_ENERGY_BOUND_HH
