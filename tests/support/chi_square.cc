#include "support/chi_square.hh"

#include <cmath>

#include "util/logging.hh"

namespace retsim {
namespace util {

double
chiSquareStatistic(const std::vector<std::uint64_t> &observed,
                   const std::vector<double> &expected)
{
    RETSIM_ASSERT(observed.size() == expected.size(),
                  "bin count mismatch");
    RETSIM_ASSERT(!observed.empty(), "need at least one bin");

    std::uint64_t total = 0;
    double weight = 0.0;
    for (std::size_t i = 0; i < observed.size(); ++i) {
        RETSIM_ASSERT(expected[i] >= 0.0, "negative expectation");
        total += observed[i];
        weight += expected[i];
    }
    RETSIM_ASSERT(weight > 0.0, "expected distribution sums to zero");

    double stat = 0.0;
    for (std::size_t i = 0; i < observed.size(); ++i) {
        double e = static_cast<double>(total) * expected[i] / weight;
        if (e == 0.0) {
            RETSIM_ASSERT(observed[i] == 0,
                          "observation in a zero-probability bin");
            continue;
        }
        double d = static_cast<double>(observed[i]) - e;
        stat += d * d / e;
    }
    return stat;
}

double
chiSquareCritical999(unsigned df)
{
    RETSIM_ASSERT(df >= 1, "degrees of freedom must be >= 1");
    // Wilson-Hilferty: X ~ df * (1 - 2/(9 df) + z sqrt(2/(9 df)))^3,
    // with z the standard-normal quantile (z_{0.999} = 3.0902).
    const double z = 3.0902;
    double n = static_cast<double>(df);
    double term = 1.0 - 2.0 / (9.0 * n) + z * std::sqrt(2.0 / (9.0 * n));
    return n * term * term * term;
}

bool
chiSquareConsistent(const std::vector<std::uint64_t> &observed,
                    const std::vector<double> &expected)
{
    // Degrees of freedom: non-empty expectation bins minus one.
    unsigned df = 0;
    for (double e : expected)
        if (e > 0.0)
            ++df;
    RETSIM_ASSERT(df >= 2, "need at least two live bins");
    return chiSquareStatistic(observed, expected) <=
           chiSquareCritical999(df - 1);
}

} // namespace util
} // namespace retsim
