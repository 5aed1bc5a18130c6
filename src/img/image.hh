/**
 * @file
 * Minimal planar image container used across the vision applications.
 *
 * Row-major, single channel.  Pixel access is bounds-checked in the
 * debug-friendly at() form and unchecked in operator().  atClamped()
 * replicates border pixels, which is the boundary convention the MRF
 * solvers use for image data terms.
 */

#ifndef RETSIM_IMG_IMAGE_HH
#define RETSIM_IMG_IMAGE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/logging.hh"

namespace retsim {
namespace img {

template <typename T>
class Image
{
  public:
    Image() = default;

    Image(int width, int height, T fill = T{})
        : width_(width), height_(height),
          data_(static_cast<std::size_t>(width) * height, fill)
    {
        RETSIM_ASSERT(width > 0 && height > 0,
                      "image dimensions must be positive");
    }

    int width() const { return width_; }
    int height() const { return height_; }
    std::size_t size() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    bool
    inBounds(int x, int y) const
    {
        return x >= 0 && x < width_ && y >= 0 && y < height_;
    }

    T &
    operator()(int x, int y)
    {
        return data_[static_cast<std::size_t>(y) * width_ + x];
    }

    const T &
    operator()(int x, int y) const
    {
        return data_[static_cast<std::size_t>(y) * width_ + x];
    }

    T &
    at(int x, int y)
    {
        RETSIM_ASSERT(inBounds(x, y), "pixel (", x, ",", y,
                      ") outside ", width_, "x", height_);
        return (*this)(x, y);
    }

    const T &
    at(int x, int y) const
    {
        RETSIM_ASSERT(inBounds(x, y), "pixel (", x, ",", y,
                      ") outside ", width_, "x", height_);
        return (*this)(x, y);
    }

    /** Border-replicating access. */
    T
    atClamped(int x, int y) const
    {
        x = std::clamp(x, 0, width_ - 1);
        y = std::clamp(y, 0, height_ - 1);
        return (*this)(x, y);
    }

    void fill(T v) { std::fill(data_.begin(), data_.end(), v); }

    std::vector<T> &data() { return data_; }
    const std::vector<T> &data() const { return data_; }

  private:
    int width_ = 0;
    int height_ = 0;
    std::vector<T> data_;
};

using ImageU8 = Image<std::uint8_t>;
using LabelMap = Image<int>;

/** Integer 2-D vector (motion labels, pixel offsets). */
struct Vec2i
{
    int x = 0;
    int y = 0;

    bool operator==(const Vec2i &o) const = default;
};

} // namespace img
} // namespace retsim

#endif // RETSIM_IMG_IMAGE_HH
