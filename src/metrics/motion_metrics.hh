/**
 * @file
 * Optical-flow quality metrics (Baker et al. evaluation methodology).
 *
 * Average end-point error (EPE), the metric the paper reports for
 * motion estimation (Fig. 9c).
 */

#ifndef RETSIM_METRICS_MOTION_METRICS_HH
#define RETSIM_METRICS_MOTION_METRICS_HH

#include "img/image.hh"

namespace retsim {
namespace metrics {

/** Mean Euclidean distance between estimated and true motion vectors. */
double endPointError(const img::Image<img::Vec2i> &flow,
                     const img::Image<img::Vec2i> &truth);

} // namespace metrics
} // namespace retsim

#endif // RETSIM_METRICS_MOTION_METRICS_HH
