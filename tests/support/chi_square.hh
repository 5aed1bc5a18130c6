/**
 * @file
 * Chi-square goodness-of-fit helpers for the statistical tests.
 *
 * The test suite validates samplers by comparing observed label
 * counts against expected probabilities; the chi-square statistic
 * with a critical-value check is the principled form of those
 * assertions (fixed tolerances either mask bias or flake).
 */

#ifndef RETSIM_TESTS_SUPPORT_CHI_SQUARE_HH
#define RETSIM_TESTS_SUPPORT_CHI_SQUARE_HH

#include <cstdint>
#include <vector>

namespace retsim {
namespace util {

/**
 * Pearson chi-square statistic of observed counts against expected
 * probabilities (normalized internally).  Bins with zero expectation
 * must have zero observations.
 */
double chiSquareStatistic(const std::vector<std::uint64_t> &observed,
                          const std::vector<double> &expected);

/**
 * Approximate upper critical value of the chi-square distribution at
 * significance 0.001 via the Wilson-Hilferty cube-root normal
 * approximation — accurate to a few percent for df >= 1, which is
 * ample for accept/reject testing.
 */
double chiSquareCritical999(unsigned degrees_of_freedom);

/**
 * Convenience: true if observed counts are consistent with the
 * expected distribution at the 0.1% significance level.
 */
bool chiSquareConsistent(const std::vector<std::uint64_t> &observed,
                         const std::vector<double> &expected);

} // namespace util
} // namespace retsim

#endif // RETSIM_TESTS_SUPPORT_CHI_SQUARE_HH
