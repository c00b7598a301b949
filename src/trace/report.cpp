#include "trace/report.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "sim/logging.hpp"

namespace uvmd::trace {

void
Table::header(std::vector<std::string> cells)
{
    header_ = std::move(cells);
}

void
Table::row(std::vector<std::string> cells)
{
    if (!header_.empty() && cells.size() != header_.size())
        sim::panic("Table::row: cell count does not match header");
    rows_.push_back(std::move(cells));
}

void
Table::print() const
{
    std::vector<std::size_t> widths(header_.size(), 0);
    auto widen = [&](const std::vector<std::string> &cells) {
        if (cells.size() > widths.size())
            widths.resize(cells.size(), 0);
        for (std::size_t i = 0; i < cells.size(); ++i)
            widths[i] = std::max(widths[i], cells[i].size());
    };
    widen(header_);
    for (const auto &r : rows_)
        widen(r);

    std::printf("\n== %s ==\n", title_.c_str());
    auto print_row = [&](const std::vector<std::string> &cells) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            std::printf("| %-*s ", static_cast<int>(widths[i]),
                        cells[i].c_str());
        }
        std::printf("|\n");
    };
    if (!header_.empty()) {
        print_row(header_);
        std::size_t total = 1;
        for (std::size_t w : widths)
            total += w + 3;
        std::string rule(total, '-');
        std::printf("%s\n", rule.c_str());
    }
    for (const auto &r : rows_)
        print_row(r);
}

void
Table::writeCsv(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        sim::fatal("cannot write " + path + ": " + std::strerror(errno));
    auto write_row = [&](const std::vector<std::string> &cells) {
        for (std::size_t i = 0; i < cells.size(); ++i)
            std::fprintf(f, "%s%s", i ? "," : "", cells[i].c_str());
        std::fprintf(f, "\n");
    };
    write_row(header_);
    for (const auto &r : rows_)
        write_row(r);
    // A write error sticks to the stream; fclose reports one that
    // only the final flush meets.
    bool failed = std::ferror(f) != 0;
    failed |= std::fclose(f) != 0;
    if (failed)
        sim::fatal("cannot write " + path + ": " + std::strerror(errno));
}

std::string
fmt(double value, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
    return buf;
}

std::string
fmtPair(double a, double b, int decimals)
{
    return fmt(a, decimals) + "/" + fmt(b, decimals);
}

}  // namespace uvmd::trace
