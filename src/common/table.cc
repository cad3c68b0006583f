#include "common/table.hh"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "common/log.hh"

namespace dbpsim {

std::string
formatDouble(double v, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << v;
    return os.str();
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values) {
        DBP_ASSERT(v > 0.0, "geomean requires positive values");
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    DBP_ASSERT(!headers_.empty(), "table needs at least one column");
}

void
TextTable::beginRow()
{
    DBP_ASSERT(rows_.empty() || rows_.back().size() == headers_.size(),
               "previous row incomplete: has " << rows_.back().size()
               << " cells, expected " << headers_.size());
    rows_.emplace_back();
}

void
TextTable::cell(const std::string &v)
{
    DBP_ASSERT(!rows_.empty(), "cell() before beginRow()");
    DBP_ASSERT(rows_.back().size() < headers_.size(),
               "too many cells in row");
    rows_.back().push_back(v);
}

void
TextTable::cell(double v, int precision)
{
    cell(formatDouble(v, precision));
}

void
TextTable::cell(std::int64_t v)
{
    cell(std::to_string(v));
}

void
TextTable::cell(std::uint64_t v)
{
    cell(std::to_string(v));
}

void
TextTable::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto emit_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < headers_.size(); ++c) {
            const std::string &v = c < row.size() ? row[c] : std::string();
            os << (c == 0 ? "" : "  ") << std::left
               << std::setw(static_cast<int>(widths[c])) << v;
        }
        os << '\n';
    };

    emit_row(headers_);
    std::size_t total = 0;
    for (std::size_t c = 0; c < widths.size(); ++c)
        total += widths[c] + (c == 0 ? 0 : 2);
    os << std::string(total, '-') << '\n';
    for (const auto &row : rows_)
        emit_row(row);
}

} // namespace dbpsim
