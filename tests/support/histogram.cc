#include "support/histogram.hh"

#include <algorithm>

#include "util/logging.hh"

namespace retsim {
namespace util {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0)
{
    RETSIM_ASSERT(bins >= 1, "histogram needs at least one bin");
    RETSIM_ASSERT(hi > lo, "histogram range is empty");
}

void
Histogram::add(double x)
{
    std::size_t idx;
    if (x < lo_) {
        idx = 0;
    } else if (x >= hi_) {
        idx = counts_.size() - 1;
    } else {
        idx = static_cast<std::size_t>((x - lo_) / width_);
        idx = std::min(idx, counts_.size() - 1);
    }
    ++counts_[idx];
    ++total_;
}

double
Histogram::binCenter(std::size_t i) const
{
    return lo_ + (static_cast<double>(i) + 0.5) * width_;
}

double
Histogram::binFraction(std::size_t i) const
{
    if (total_ == 0)
        return 0.0;
    return static_cast<double>(counts_.at(i)) /
           static_cast<double>(total_);
}

} // namespace util
} // namespace retsim
