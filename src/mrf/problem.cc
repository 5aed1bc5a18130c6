#include "mrf/problem.hh"

#include <cstddef>

#include "simd/kernels.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace retsim {
namespace mrf {

namespace {

/** Diagonal doubleton weighting for 8-connectivity (1/distance). */
constexpr float kDiagonalWeight = 0.70710678f;

} // namespace

MrfProblem::MrfProblem(int width, int height, PairwiseTable pairwise,
                       std::string name, Neighborhood neighborhood)
    : width_(width), height_(height), pairwise_(std::move(pairwise)),
      name_(std::move(name)), neighborhood_(neighborhood)
{
    RETSIM_ASSERT(width >= 1 && height >= 1,
                  "grid dimensions must be positive");
    singleton_.assign(static_cast<std::size_t>(width) * height *
                          numLabels(),
                      0.0f);
}

void
MrfProblem::conditionalEnergies(const img::LabelMap &labels, int x,
                                int y, std::span<float> out) const
{
    const int m = numLabels();
    RETSIM_ASSERT(static_cast<int>(out.size()) == m,
                  "output span has wrong label count");

    const float *s = singleton_.data() + index(x, y, 0);

    // Fused interior path: every 4-neighbor is in bounds, so the sum
    // is one singleton row copy plus four contiguous pairwise-row adds
    // with no per-neighbor branching.  The addition order (left,
    // right, up, down) matches the general path bit for bit.
    if (neighborhood_ == Neighborhood::Four && x > 0 &&
        x + 1 < width_ && y > 0 && y + 1 < height_) {
        const float *rl = pairwise_.row(labels(x - 1, y));
        const float *rr = pairwise_.row(labels(x + 1, y));
        const float *ru = pairwise_.row(labels(x, y - 1));
        const float *rd = pairwise_.row(labels(x, y + 1));
        simd::kernels().addRows5(s, rl, rr, ru, rd, out.data(),
                                 static_cast<std::size_t>(m));
        return;
    }

    for (int i = 0; i < m; ++i)
        out[i] = s[i];

    // Doubleton: add one (weighted) pairwise-table row per in-bounds
    // neighbor.
    auto add_neighbor = [&](int nx, int ny, float weight) {
        if (nx < 0 || nx >= width_ || ny < 0 || ny >= height_)
            return;
        int q = labels(nx, ny);
        for (int i = 0; i < m; ++i)
            out[i] += weight * pairwise_(i, q);
    };
    add_neighbor(x - 1, y, 1.0f);
    add_neighbor(x + 1, y, 1.0f);
    add_neighbor(x, y - 1, 1.0f);
    add_neighbor(x, y + 1, 1.0f);
    if (neighborhood_ == Neighborhood::Eight) {
        add_neighbor(x - 1, y - 1, kDiagonalWeight);
        add_neighbor(x + 1, y - 1, kDiagonalWeight);
        add_neighbor(x - 1, y + 1, kDiagonalWeight);
        add_neighbor(x + 1, y + 1, kDiagonalWeight);
    }
}

int
MrfProblem::conditionalEnergiesRow(const img::LabelMap &labels, int y,
                                   int x0, int xStep,
                                   std::span<float> out) const
{
    RETSIM_ASSERT(y >= 0 && y < height_, "row ", y, " out of range");
    RETSIM_ASSERT(x0 >= 0 && xStep >= 1, "bad row phase");
    const int m = numLabels();
    const int count = x0 < width_ ? (width_ - x0 + xStep - 1) / xStep
                                  : 0;
    RETSIM_ASSERT(out.size() >= static_cast<std::size_t>(count) * m,
                  "row arena too small: ", out.size(), " floats for ",
                  count, " pixels x ", m, " labels");

    // Fused interior path: on an interior row of the 4-neighborhood
    // every pixel that is also x-interior needs no bounds checks, and
    // the up/down label rows and the singleton base advance by fixed
    // strides.  The addition order (singleton, left, right, up, down)
    // matches conditionalEnergies() bit for bit.
    if (neighborhood_ == Neighborhood::Four && y > 0 &&
        y + 1 < height_) {
        const int *row = &labels(0, y);
        const int *up = &labels(0, y - 1);
        const int *down = &labels(0, y + 1);
        int n = 0;
        for (int x = x0; x < width_; x += xStep, ++n) {
            std::span<float> o = out.subspan(
                static_cast<std::size_t>(n) * m,
                static_cast<std::size_t>(m));
            if (x == 0 || x + 1 == width_) {
                conditionalEnergies(labels, x, y, o);
                continue;
            }
            const float *s = singleton_.data() + index(x, y, 0);
            const float *rl = pairwise_.row(row[x - 1]);
            const float *rr = pairwise_.row(row[x + 1]);
            const float *ru = pairwise_.row(up[x]);
            const float *rd = pairwise_.row(down[x]);
            simd::kernels().addRows5(s, rl, rr, ru, rd, o.data(),
                                     static_cast<std::size_t>(m));
        }
        return n;
    }

    int n = 0;
    for (int x = x0; x < width_; x += xStep, ++n)
        conditionalEnergies(labels, x, y,
                            out.subspan(static_cast<std::size_t>(n) * m,
                                        static_cast<std::size_t>(m)));
    return n;
}

void
MrfProblem::conditionalEnergiesRun(const img::LabelMap &labels,
                                   const std::uint8_t *shadow, int y,
                                   int x0, int xStep, int i0,
                                   int count, float *slab) const
{
    const int m = numLabels();
    const std::size_t sm = static_cast<std::size_t>(m);
    int i = i0;
    const int end = i0 + count;
    auto fallback = [&](int idx) {
        conditionalEnergies(
            labels, x0 + idx * xStep, y,
            std::span<float>(slab + static_cast<std::size_t>(idx) * sm,
                             sm));
    };

    if (neighborhood_ == Neighborhood::Four && y > 0 &&
        y + 1 < height_) {
        // x grows with i, so at most the run's first pixel sits on the
        // left edge and its last on the right edge; everything between
        // is interior and flows through one fused u8 dispatch.
        if (i < end && x0 + i * xStep == 0) {
            fallback(i);
            ++i;
        }
        int last = end;
        if (last > i && x0 + (last - 1) * xStep + 1 == width_)
            --last;
        if (last > i) {
            const int xf = x0 + i * xStep;
            const std::size_t yw =
                static_cast<std::size_t>(y) * width_;
            simd::kernels().energyRunU8(
                singleton_.data() + index(xf, y, 0),
                static_cast<std::size_t>(xStep) * sm,
                pairwise_.row(0), sm, shadow + yw + xf - 1,
                shadow + yw + xf + 1, shadow + yw - width_ + xf,
                shadow + yw + width_ + xf,
                static_cast<std::size_t>(xStep),
                static_cast<std::size_t>(last - i),
                slab + static_cast<std::size_t>(i) * sm);
            i = last;
        }
        if (i < end)
            fallback(i);
        return;
    }

    for (; i < end; ++i)
        fallback(i);
}

namespace {

/** Below this pixel count the fork/join overhead beats the win. */
constexpr std::size_t kParallelEnergyPixels = 1u << 15;

} // namespace

double
MrfProblem::rowEnergy(const img::LabelMap &labels, int y) const
{
    double e = 0.0;
    for (int x = 0; x < width_; ++x) {
        int l = labels(x, y);
        e += singleton(x, y, l);
        // Count each edge once (right/down, plus the two forward
        // diagonals under 8-connectivity).
        if (x + 1 < width_)
            e += pairwise_(l, labels(x + 1, y));
        if (y + 1 < height_)
            e += pairwise_(l, labels(x, y + 1));
        if (neighborhood_ == Neighborhood::Eight && y + 1 < height_) {
            if (x + 1 < width_)
                e += kDiagonalWeight *
                     pairwise_(l, labels(x + 1, y + 1));
            if (x > 0)
                e += kDiagonalWeight *
                     pairwise_(l, labels(x - 1, y + 1));
        }
    }
    return e;
}

double
MrfProblem::totalEnergy(const img::LabelMap &labels) const
{
    RETSIM_ASSERT(labels.width() == width_ &&
                      labels.height() == height_,
                  "labeling size mismatch");
    const std::size_t pixels =
        static_cast<std::size_t>(width_) * height_;
    if (pixels < kParallelEnergyPixels) {
        double e = 0.0;
        for (int y = 0; y < height_; ++y)
            e += rowEnergy(labels, y);
        return e;
    }
    // One partial per row, reduced in row order: the result is a fixed
    // function of the labeling no matter how many threads ran.
    std::vector<double> partial(static_cast<std::size_t>(height_));
    util::ThreadPool::global().parallelFor(
        partial.size(), [&](std::size_t y) {
            partial[y] = rowEnergy(labels, static_cast<int>(y));
        });
    double e = 0.0;
    for (double p : partial)
        e += p;
    return e;
}

} // namespace mrf
} // namespace retsim
