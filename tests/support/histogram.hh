/**
 * @file
 * Fixed-width histogram for the statistical tests.
 */

#ifndef RETSIM_TESTS_SUPPORT_HISTOGRAM_HH
#define RETSIM_TESTS_SUPPORT_HISTOGRAM_HH

#include <cstdint>
#include <vector>

namespace retsim {
namespace util {

/**
 * Fixed-width histogram over [lo, hi); out-of-range samples are counted
 * in saturating edge bins so totals are conserved.
 */
class Histogram
{
  public:
    /**
     * @param lo Inclusive lower edge of the first bin.
     * @param hi Exclusive upper edge of the last bin.
     * @param bins Number of bins (must be >= 1).
     */
    Histogram(double lo, double hi, std::size_t bins);

    void add(double x);

    std::uint64_t binCount(std::size_t i) const { return counts_.at(i); }
    std::size_t numBins() const { return counts_.size(); }
    std::uint64_t total() const { return total_; }

    /** Center of bin i. */
    double binCenter(std::size_t i) const;

    /** Fraction of all samples landing in bin i. */
    double binFraction(std::size_t i) const;

  private:
    double lo_;
    double hi_;
    double width_;
    std::uint64_t total_ = 0;
    std::vector<std::uint64_t> counts_;
};

} // namespace util
} // namespace retsim

#endif // RETSIM_TESTS_SUPPORT_HISTOGRAM_HH
