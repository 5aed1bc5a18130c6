#include "util/table.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "util/logging.hh"

namespace retsim {
namespace util {

std::string
formatFixed(double v, int precision)
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(precision) << v;
    return oss.str();
}

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header))
{
    RETSIM_ASSERT(!header_.empty(), "table needs at least one column");
}

TextTable &
TextTable::newRow()
{
    rows_.emplace_back();
    return *this;
}

TextTable &
TextTable::cell(const std::string &s)
{
    RETSIM_ASSERT(!rows_.empty(), "call newRow() before cell()");
    RETSIM_ASSERT(rows_.back().size() < header_.size(),
                  "row has more cells than header columns");
    rows_.back().push_back(s);
    return *this;
}

TextTable &
TextTable::cell(double v, int precision)
{
    return cell(formatFixed(v, precision));
}

TextTable &
TextTable::cell(std::int64_t v)
{
    return cell(std::to_string(v));
}

TextTable &
TextTable::cell(std::uint64_t v)
{
    return cell(std::to_string(v));
}

const std::string &
TextTable::at(std::size_t row, std::size_t col) const
{
    return rows_.at(row).at(col);
}

void
TextTable::print(std::ostream &os, const std::string &title) const
{
    std::vector<std::size_t> widths(header_.size());
    for (std::size_t c = 0; c < header_.size(); ++c)
        widths[c] = header_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    if (!title.empty())
        os << "== " << title << " ==\n";

    auto print_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < header_.size(); ++c) {
            const std::string &s = c < row.size() ? row[c] : std::string();
            os << std::left << std::setw(static_cast<int>(widths[c]) + 2)
               << s;
        }
        os << '\n';
    };

    print_row(header_);
    std::size_t total = 0;
    for (auto w : widths)
        total += w + 2;
    os << std::string(total, '-') << '\n';
    for (const auto &row : rows_)
        print_row(row);
}

} // namespace util
} // namespace retsim
