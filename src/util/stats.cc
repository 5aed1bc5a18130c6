#include "util/stats.hh"

#include <algorithm>
#include <cmath>

namespace retsim {
namespace util {

void
RunningStats::add(double x)
{
    if (count_ == 0) {
        min_ = x;
        max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
}

double
RunningStats::variance() const
{
    if (count_ == 0)
        return 0.0;
    return m2_ / static_cast<double>(count_);
}

double
RunningStats::sampleVariance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_ - 1);
}

double
RunningStats::stddev() const
{
    return std::sqrt(sampleVariance());
}

} // namespace util
} // namespace retsim
