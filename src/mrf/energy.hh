/**
 * @file
 * MRF energy building blocks.
 *
 * The RSU-G energy stage (Eq. 1) sums a per-site singleton term and a
 * doubleton term over the 4-neighborhood, where the doubleton is a
 * distance between label values.  The previous RSU-G supported only
 * squared distance; the new design adds absolute and binary distances
 * (Sec. IV-B.1), covering motion estimation, stereo vision and image
 * segmentation respectively.
 */

#ifndef RETSIM_MRF_ENERGY_HH
#define RETSIM_MRF_ENERGY_HH

#include <vector>

namespace retsim {
namespace mrf {

/** The three doubleton distance functions the new RSU-G supports. */
enum class DistanceKind
{
    Squared,  ///< (a - b)^2       — motion estimation
    Absolute, ///< |a - b|         — stereo vision
    Binary,   ///< a == b ? 0 : 1  — image segmentation (Potts)
};

/** Evaluate one distance between scalar label values. */
double labelDistance(DistanceKind kind, double a, double b);

/**
 * Doubleton energy table: weight * min(distance(i, j), tau) for all
 * label pairs, precomputed so the Gibbs inner loop is table lookups.
 * For vector-valued labels (motion) supply explicit per-label
 * coordinates; the distance is applied per component and summed.
 */
class PairwiseTable
{
  public:
    /**
     * Scalar labels 0..num_labels-1.
     * @param tau Truncation of the distance (<=0 means untruncated).
     */
    PairwiseTable(DistanceKind kind, int num_labels, double weight,
                  double tau = 0.0);

    /**
     * Vector labels given by coordinate lists (label i has coordinates
     * coords[i]); distance = sum over components.
     */
    PairwiseTable(DistanceKind kind,
                  const std::vector<std::vector<double>> &coords,
                  double weight, double tau = 0.0);

    int numLabels() const { return numLabels_; }
    DistanceKind kind() const { return kind_; }

    float
    operator()(int i, int j) const
    {
        return table_[static_cast<std::size_t>(i) * numLabels_ + j];
    }

    /**
     * Contiguous row @p i of the table.  Every distance kind is
     * symmetric, so row q doubles as column q: row(q)[i] is the
     * doubleton energy of label i against a neighbor labeled q —
     * the access pattern of the fused conditional-energy kernel.
     */
    const float *
    row(int i) const
    {
        return table_.data() + static_cast<std::size_t>(i) * numLabels_;
    }

  private:
    void build(const std::vector<std::vector<double>> &coords,
               double weight, double tau);

    DistanceKind kind_;
    int numLabels_;
    std::vector<float> table_;
};

} // namespace mrf
} // namespace retsim

#endif // RETSIM_MRF_ENERGY_HH
