#include "mrf/energy.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace retsim {
namespace mrf {

double
labelDistance(DistanceKind kind, double a, double b)
{
    switch (kind) {
      case DistanceKind::Squared:
        return (a - b) * (a - b);
      case DistanceKind::Absolute:
        return std::abs(a - b);
      case DistanceKind::Binary:
        return a == b ? 0.0 : 1.0;
    }
    RETSIM_PANIC("unhandled distance kind");
}

PairwiseTable::PairwiseTable(DistanceKind kind, int num_labels,
                             double weight, double tau)
    : kind_(kind), numLabels_(num_labels)
{
    RETSIM_ASSERT(num_labels >= 1, "need at least one label");
    std::vector<std::vector<double>> coords(num_labels);
    for (int i = 0; i < num_labels; ++i)
        coords[i] = {static_cast<double>(i)};
    build(coords, weight, tau);
}

PairwiseTable::PairwiseTable(
    DistanceKind kind, const std::vector<std::vector<double>> &coords,
    double weight, double tau)
    : kind_(kind), numLabels_(static_cast<int>(coords.size()))
{
    RETSIM_ASSERT(!coords.empty(), "need at least one label");
    build(coords, weight, tau);
}

void
PairwiseTable::build(const std::vector<std::vector<double>> &coords,
                     double weight, double tau)
{
    RETSIM_ASSERT(weight >= 0.0, "pairwise weight cannot be negative");
    table_.resize(static_cast<std::size_t>(numLabels_) * numLabels_);
    for (int i = 0; i < numLabels_; ++i) {
        RETSIM_ASSERT(coords[i].size() == coords[0].size(),
                      "inconsistent label dimensionality");
        for (int j = 0; j < numLabels_; ++j) {
            double d = 0.0;
            for (std::size_t c = 0; c < coords[i].size(); ++c)
                d += labelDistance(kind_, coords[i][c], coords[j][c]);
            if (tau > 0.0)
                d = std::min(d, tau);
            table_[static_cast<std::size_t>(i) * numLabels_ + j] =
                static_cast<float>(weight * d);
        }
    }
}

} // namespace mrf
} // namespace retsim
