/**
 * @file
 * Streaming statistics accumulator.
 *
 * RunningStats implements Welford's online algorithm so means and
 * variances of long MCMC traces can be accumulated without storing the
 * samples.
 */

#ifndef RETSIM_UTIL_STATS_HH
#define RETSIM_UTIL_STATS_HH

#include <cstdint>

namespace retsim {
namespace util {

/**
 * Online accumulator for count/mean/variance/min/max.
 */
class RunningStats
{
  public:
    RunningStats() = default;

    /** Fold one observation into the accumulator. */
    void add(double x);

    std::uint64_t count() const { return count_; }
    double mean() const { return count_ ? mean_ : 0.0; }

    /** Population variance (divides by n). */
    double variance() const;

    /** Sample variance (divides by n-1); 0 for fewer than 2 samples. */
    double sampleVariance() const;

    /** Sample standard deviation. */
    double stddev() const;

    double min() const { return min_; }
    double max() const { return max_; }
    double sum() const { return mean_ * static_cast<double>(count_); }

  private:
    std::uint64_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

} // namespace util
} // namespace retsim

#endif // RETSIM_UTIL_STATS_HH
