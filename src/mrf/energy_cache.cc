#include "mrf/energy_cache.hh"

#include <algorithm>
#include <bit>

#include "util/logging.hh"

namespace retsim {
namespace mrf {

EnergyPlaneCache::EnergyPlaneCache(int width, int height,
                                   int numLabels, int phases)
    : EnergyPlaneCache(width, height, numLabels, phases, 0, height)
{
}

EnergyPlaneCache::EnergyPlaneCache(int width, int height,
                                   int numLabels, int phases, int rowLo,
                                   int rowHi)
    : width_(width), height_(height), m_(numLabels), phases_(phases),
      rowLo_(rowLo), rowHi_(rowHi)
{
    RETSIM_ASSERT(width >= 1 && height >= 1, "bad cache dimensions");
    RETSIM_ASSERT(phases == 1 || phases == 2,
                  "cache supports 1 (raster) or 2 (checkerboard) "
                  "phases");
    RETSIM_ASSERT(numLabels >= 1 && numLabels <= 256,
                  "shadow label plane needs m <= 256, got ",
                  numLabels);
    RETSIM_ASSERT(rowLo >= 0 && rowLo < rowHi && rowHi <= height,
                  "bad cache row window [", rowLo, ", ", rowHi, ")");
    RETSIM_ASSERT(phases == 2 || (rowLo == 0 && rowHi == height),
                  "only color-phase caches take a row window");
    pixelsPerSlab_ =
        phases == 1 ? static_cast<std::size_t>(width)
                    : static_cast<std::size_t>((width + 1) / 2);
    wordsPerSlab_ = (pixelsPerSlab_ + 63) / 64;
    slabStride_ = pixelsPerSlab_ * static_cast<std::size_t>(m_);
    const std::size_t slabs =
        static_cast<std::size_t>(rowHi - rowLo) * phases;
    plane_.assign(slabs * slabStride_, 0.0f);
    dirty_.assign(slabs * wordsPerSlab_, 0);
    shadow_.assign(static_cast<std::size_t>(width) * height, 0);
    reset();
}

void
EnergyPlaneCache::reset()
{
    std::fill(dirty_.begin(), dirty_.end(), ~std::uint64_t{0});
}

void
EnergyPlaneCache::syncShadow(const img::LabelMap &labels)
{
    const std::vector<int> &src = labels.data();
    for (std::size_t i = 0; i < src.size(); ++i)
        shadow_[i] = static_cast<std::uint8_t>(src[i]);
}

std::uint64_t
EnergyPlaneCache::markFlip(int x, int y, Neighborhood neighborhood,
                           int rowLo, int rowHi,
                           std::vector<std::uint64_t> *deferred)
{
    checkRows(rowLo, rowHi);
    std::uint64_t marks = 0;
    auto touch = [&](int nx, int ny) {
        if (nx < 0 || nx >= width_ || ny < 0 || ny >= height_)
            return;
        if (ny < rowLo || ny >= rowHi) {
            // Stripe-boundary row: hand the mark to the coordinator
            // for the color-phase join instead of racing the owner.
            deferred->push_back(
                (static_cast<std::uint64_t>(nx) << 32) |
                static_cast<std::uint32_t>(ny));
            return;
        }
        mark(nx, ny);
        ++marks;
    };
    touch(x, y);
    touch(x - 1, y);
    touch(x + 1, y);
    touch(x, y - 1);
    touch(x, y + 1);
    if (neighborhood == Neighborhood::Eight) {
        touch(x - 1, y - 1);
        touch(x + 1, y - 1);
        touch(x - 1, y + 1);
        touch(x + 1, y + 1);
    }
    return marks;
}

std::uint64_t
EnergyPlaneCache::markRowFlips(int y, int color,
                               const std::uint64_t *flips, int rowLo,
                               int rowHi,
                               std::vector<std::uint64_t> *deferred)
{
    RETSIM_ASSERT(phases_ == 2, "row flip marks need color-phase slabs");
    checkRow(y);
    checkRows(rowLo, rowHi);
    const int n = phasePixels(y, color);
    const int other = color ^ 1;
    const int n_other = phasePixels(y, other);
    const int x0 = (y + color) & 1;
    const std::size_t words = (static_cast<std::size_t>(n) + 63) / 64;
    const std::size_t words_other =
        (static_cast<std::size_t>(n_other) + 63) / 64;
    // Bits of word k below the slab's pixel count @p count.
    const auto valid = [](std::size_t k, int count) {
        const std::int64_t left =
            static_cast<std::int64_t>(count) -
            static_cast<std::int64_t>(64 * k);
        if (left >= 64)
            return ~std::uint64_t{0};
        return left <= 0 ? std::uint64_t{0}
                         : (std::uint64_t{1} << left) - 1;
    };
    std::uint64_t marks = 0;

    // Own slab, and the rows above and below: pixel i of the other
    // color's slab there sits at the same x = x0 + 2i.
    std::uint64_t flipped = 0;
    std::uint64_t *self = dirty_.data() + slab(y, color) * wordsPerSlab_;
    for (std::size_t k = 0; k < words; ++k) {
        self[k] |= flips[k];
        flipped += static_cast<std::uint64_t>(std::popcount(flips[k]));
    }
    marks += flipped;
    for (const int ny : {y - 1, y + 1}) {
        if (ny < 0 || ny >= height_)
            continue;
        if (ny >= rowLo && ny < rowHi) {
            std::uint64_t *w =
                dirty_.data() + slab(ny, other) * wordsPerSlab_;
            for (std::size_t k = 0; k < words; ++k)
                w[k] |= flips[k];
            marks += flipped;
            continue;
        }
        // Stripe-boundary row: hand the marks to the coordinator for
        // the color-phase join instead of racing the owner.
        for (std::size_t k = 0; k < words; ++k) {
            for (std::uint64_t f = flips[k]; f; f &= f - 1) {
                const std::uint64_t x =
                    static_cast<std::uint64_t>(x0) +
                    2 * (64 * k + static_cast<std::uint64_t>(
                                      std::countr_zero(f)));
                deferred->push_back(
                    (x << 32) | static_cast<std::uint32_t>(ny));
            }
        }
    }

    // Same row, other color: pixel i's left and right neighbors are
    // other-color pixels i - 1 and i (x0 == 0) or i and i + 1
    // (x0 == 1), where they exist.
    std::uint64_t *row = dirty_.data() + slab(y, other) * wordsPerSlab_;
    for (std::size_t k = 0; k < words_other; ++k) {
        const std::uint64_t cur = k < words ? flips[k] : 0;
        std::uint64_t left;
        std::uint64_t right;
        if (x0 == 0) {
            const std::uint64_t next = k + 1 < words ? flips[k + 1] : 0;
            left = (cur >> 1) | (next << 63);
            right = cur;
        } else {
            const std::uint64_t prev = k > 0 ? flips[k - 1] : 0;
            left = cur;
            right = (cur << 1) | (prev >> 63);
        }
        const std::uint64_t v = valid(k, n_other);
        left &= v;
        right &= v;
        row[k] |= left | right;
        marks += static_cast<std::uint64_t>(std::popcount(left) +
                                            std::popcount(right));
    }
    return marks;
}

std::uint64_t
EnergyPlaneCache::applyDeferred(std::vector<std::uint64_t> &deferred)
{
    for (std::uint64_t p : deferred) {
        const int y = static_cast<int>(p & 0xffffffffu);
        checkRow(y);
        mark(static_cast<int>(p >> 32), y);
    }
    const std::uint64_t marks = deferred.size();
    deferred.clear();
    return marks;
}

int
EnergyPlaneCache::refreshRow(const MrfProblem &problem,
                             const img::LabelMap &labels, int y,
                             int color)
{
    checkRow(y);
    const int n = phasePixels(y, color);
    if (n == 0)
        return 0;
    std::uint64_t *dw = dirty_.data() + slab(y, color) * wordsPerSlab_;
    float *pl = plane_.data() + slab(y, color) * slabStride_;
    const int x0 = phases_ == 1 ? 0 : (y + color) & 1;
    const int xStep = phases_ == 1 ? 1 : 2;

    auto next_set = [&](int from) {
        std::size_t w = static_cast<std::size_t>(from) >> 6;
        std::uint64_t word = dw[w] & (~std::uint64_t{0} << (from & 63));
        while (word == 0) {
            if (++w >= wordsPerSlab_)
                return n;
            word = dw[w];
        }
        const int b = static_cast<int>(w * 64) +
                      std::countr_zero(word);
        return b < n ? b : n;
    };
    auto next_clear = [&](int from) {
        std::size_t w = static_cast<std::size_t>(from) >> 6;
        std::uint64_t word =
            ~dw[w] & (~std::uint64_t{0} << (from & 63));
        while (word == 0) {
            if (++w >= wordsPerSlab_)
                return n;
            word = ~dw[w];
        }
        const int b = static_cast<int>(w * 64) +
                      std::countr_zero(word);
        return b < n ? b : n;
    };

    int recomputed = 0;
    int i = next_set(0);
    while (i < n) {
        const int j = next_clear(i);
        problem.conditionalEnergiesRun(labels, shadow_.data(), y, x0,
                                       xStep, i, j - i, pl);
        recomputed += j - i;
        i = j < n ? next_set(j) : n;
    }
    std::fill(dw, dw + wordsPerSlab_, 0);
    return recomputed;
}

const float *
EnergyPlaneCache::pixelEnergies(const MrfProblem &problem,
                                const img::LabelMap &labels, int x,
                                int y, std::uint64_t &recomputed)
{
    const std::size_t base = slab(y, 0) * wordsPerSlab_;
    std::uint64_t &word =
        dirty_[base + (static_cast<std::size_t>(x) >> 6)];
    const std::uint64_t bit = std::uint64_t{1} << (x & 63);
    float *pl = plane_.data() + slab(y, 0) * slabStride_ +
                static_cast<std::size_t>(x) * m_;
    if (word & bit) {
        problem.conditionalEnergies(
            labels, x, y,
            std::span<float>(pl, static_cast<std::size_t>(m_)));
        word &= ~bit;
        ++recomputed;
    }
    return pl;
}

} // namespace mrf
} // namespace retsim
