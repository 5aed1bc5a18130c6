#include "img/dataset_io.hh"

#include "img/pgm_io.hh"
#include "util/logging.hh"

namespace retsim {
namespace img {

StereoScene
loadStereoScene(const std::string &name, const std::string &left_path,
                const std::string &right_path,
                const std::string &gt_path, int gt_scale,
                int num_labels)
{
    // User-supplied dataset parameters: reject loudly, don't abort.
    if (gt_scale < 1)
        RETSIM_FATAL("ground-truth scale must be >= 1, got ",
                     gt_scale);
    if (num_labels < 2 || num_labels > 64)
        RETSIM_FATAL("label count outside the RSU-G range [2, 64]: ",
                     num_labels);

    StereoScene scene;
    scene.name = name;
    scene.numLabels = num_labels;
    scene.left = readPgm(left_path);
    scene.right = readPgm(right_path);
    if (scene.left.width() != scene.right.width() ||
        scene.left.height() != scene.right.height()) {
        RETSIM_FATAL("stereo pair size mismatch: ", left_path, " vs ",
                     right_path);
    }

    scene.gtDisparity =
        LabelMap(scene.left.width(), scene.left.height(), 0);
    if (!gt_path.empty()) {
        ImageU8 gt = readPgm(gt_path);
        if (gt.width() != scene.left.width() ||
            gt.height() != scene.left.height()) {
            RETSIM_FATAL("ground truth size mismatch: ", gt_path);
        }
        for (int y = 0; y < gt.height(); ++y) {
            for (int x = 0; x < gt.width(); ++x) {
                int d = gt(x, y) / gt_scale;
                if (d >= num_labels) {
                    RETSIM_FATAL("ground-truth disparity ", d,
                                 " exceeds the ", num_labels,
                                 "-label search range");
                }
                scene.gtDisparity(x, y) = d;
            }
        }
    }
    return scene;
}

} // namespace img
} // namespace retsim
