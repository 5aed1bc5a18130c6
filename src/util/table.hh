/**
 * @file
 * Plain-text table writer used by the benchmark harness to print the
 * paper's tables and figure series in a uniform format.
 */

#ifndef RETSIM_UTIL_TABLE_HH
#define RETSIM_UTIL_TABLE_HH

#include <ostream>
#include <string>
#include <vector>

namespace retsim {
namespace util {

/**
 * Column-aligned text table.  Cells are strings; numeric convenience
 * overloads format with a fixed precision.
 */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> header);

    /** Start a new row. */
    TextTable &newRow();

    /** Append a cell to the current row. */
    TextTable &cell(const std::string &s);
    TextTable &cell(const char *s) { return cell(std::string(s)); }
    TextTable &cell(double v, int precision = 3);
    TextTable &cell(std::int64_t v);
    TextTable &cell(std::uint64_t v);
    TextTable &cell(int v) { return cell(static_cast<std::int64_t>(v)); }
    TextTable &cell(unsigned v)
    {
        return cell(static_cast<std::uint64_t>(v));
    }

    /** Render with aligned columns. */
    void print(std::ostream &os, const std::string &title = "") const;

    std::size_t numRows() const { return rows_.size(); }
    std::size_t numCols() const { return header_.size(); }

    /** Access a rendered cell (for tests). */
    const std::string &at(std::size_t row, std::size_t col) const;

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with fixed decimal places. */
std::string formatFixed(double v, int precision);

} // namespace util
} // namespace retsim

#endif // RETSIM_UTIL_TABLE_HH
