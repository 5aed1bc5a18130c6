#include "support/energy_bound.hh"

#include <algorithm>
#include <cmath>

namespace retsim {
namespace mrf {

double
maxConditionalEnergy(const MrfProblem &problem)
{
    const int m = problem.numLabels();
    float max_singleton = 0.0f;
    for (int y = 0; y < problem.height(); ++y)
        for (int x = 0; x < problem.width(); ++x)
            for (int l = 0; l < m; ++l)
                max_singleton =
                    std::max(max_singleton, problem.singleton(x, y, l));
    float max_pairwise = 0.0f;
    for (int i = 0; i < m; ++i)
        for (int j = 0; j < m; ++j)
            max_pairwise = std::max(max_pairwise, problem.pairwise()(i, j));
    // Diagonal edges weigh 1/sqrt(2) (mrf/problem.hh).
    const double degree = problem.neighborhood() == Neighborhood::Eight
                              ? 4.0 + 4.0 * std::sqrt(0.5)
                              : 4.0;
    return static_cast<double>(max_singleton) + degree * max_pairwise;
}

} // namespace mrf
} // namespace retsim
