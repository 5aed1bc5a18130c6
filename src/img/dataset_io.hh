/**
 * @file
 * Loading real stereo pairs from PGM files.
 *
 * The benchmark suite runs on synthetic analogs because the
 * Middlebury images are not redistributable — but a user who has
 * them (stereo pairs converted to PGM) can load them here and run the
 * stereo application on them (examples/stereo_vision).  Ground-truth
 * disparity maps follow the Middlebury convention of a per-dataset
 * scale factor (gray value = disparity * scale).
 */

#ifndef RETSIM_IMG_DATASET_IO_HH
#define RETSIM_IMG_DATASET_IO_HH

#include <string>

#include "img/synthetic.hh"

namespace retsim {
namespace img {

/**
 * Assemble a StereoScene from PGM files.
 *
 * @param gt_path Ground-truth disparity PGM, or empty for none (the
 *        gtDisparity map is then all zeros and quality metrics are
 *        meaningless — solving still works).
 * @param gt_scale Gray-value units per disparity (Middlebury uses 8
 *        for quarter-size pairs, 4 for half-size).
 * @param num_labels Disparity search range; must cover the ground
 *        truth and be <= 64 (the RSU-G label limit).
 */
StereoScene loadStereoScene(const std::string &name,
                            const std::string &left_path,
                            const std::string &right_path,
                            const std::string &gt_path = "",
                            int gt_scale = 8, int num_labels = 64);

} // namespace img
} // namespace retsim

#endif // RETSIM_IMG_DATASET_IO_HH
