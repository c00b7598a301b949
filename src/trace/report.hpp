/**
 * @file
 * Table and series formatting for the benchmark harnesses.
 *
 * Every bench regenerates one of the paper's tables or figures; these
 * helpers keep the output uniform: a titled, column-aligned table
 * (figures are printed as series tables) plus an optional CSV dump
 * for external plotting.
 */

#ifndef UVMD_TRACE_REPORT_HPP
#define UVMD_TRACE_REPORT_HPP

#include <cstdio>
#include <string>
#include <vector>

namespace uvmd::trace {

class Table
{
  public:
    explicit Table(std::string title) : title_(std::move(title)) {}

    /** Set the header row. */
    void header(std::vector<std::string> cells);

    /** Append a data row. */
    void row(std::vector<std::string> cells);

    /** Render to stdout with aligned columns. */
    void print() const;

    /** Write as CSV to @p path (replacing it), header first.
     *  @throws sim::FatalError naming @p path if it cannot be
     *          opened, written or closed. */
    void writeCsv(const std::string &path) const;

  private:
    std::string title_;
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/** printf-style float formatting helper for table cells. */
std::string fmt(double value, int decimals = 2);

/** "a/b" cell in the paper's PCIe-3/PCIe-4 pair style. */
std::string fmtPair(double a, double b, int decimals = 2);

}  // namespace uvmd::trace

#endif  // UVMD_TRACE_REPORT_HPP
