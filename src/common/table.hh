/**
 * @file
 * ASCII table rendering for the benchmark harnesses.
 *
 * Every figure/table bench emits one of these so the output looks like
 * the rows/series of the corresponding plot in the paper.
 */

#ifndef DBPSIM_COMMON_TABLE_HH
#define DBPSIM_COMMON_TABLE_HH

#include <ostream>
#include <string>
#include <vector>

namespace dbpsim {

/**
 * A simple column-aligned table with a header row.
 */
class TextTable
{
  public:
    /** @param headers Column titles; fixes the column count. */
    explicit TextTable(std::vector<std::string> headers);

    /** Begin a new row. */
    void beginRow();

    /** Append a string cell to the current row. */
    void cell(const std::string &v);

    /** Append a formatted double cell (fixed, @p precision digits). */
    void cell(double v, int precision = 3);

    /** Append an integer cell. */
    void cell(std::int64_t v);
    void cell(std::uint64_t v);
    void cell(int v) { cell(static_cast<std::int64_t>(v)); }
    void cell(unsigned v) { cell(static_cast<std::uint64_t>(v)); }

    /** Render aligned ASCII with a separator under the header. */
    void print(std::ostream &os) const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with fixed precision into a string. */
std::string formatDouble(double v, int precision = 3);

/** Geometric mean of a vector of positive values (0 on empty input). */
double geomean(const std::vector<double> &values);

} // namespace dbpsim

#endif // DBPSIM_COMMON_TABLE_HH
