#include "metrics/motion_metrics.hh"

#include <cmath>

#include "util/logging.hh"

namespace retsim {
namespace metrics {

namespace {

void
checkSameSize(const img::Image<img::Vec2i> &a,
              const img::Image<img::Vec2i> &b)
{
    RETSIM_ASSERT(a.width() == b.width() && a.height() == b.height(),
                  "flow/truth size mismatch");
    RETSIM_ASSERT(!a.empty(), "empty flow field");
}

} // namespace

double
endPointError(const img::Image<img::Vec2i> &flow,
              const img::Image<img::Vec2i> &truth)
{
    checkSameSize(flow, truth);
    double acc = 0.0;
    for (int y = 0; y < flow.height(); ++y) {
        for (int x = 0; x < flow.width(); ++x) {
            double dx = flow(x, y).x - truth(x, y).x;
            double dy = flow(x, y).y - truth(x, y).y;
            acc += std::sqrt(dx * dx + dy * dy);
        }
    }
    return acc / static_cast<double>(flow.size());
}

} // namespace metrics
} // namespace retsim
