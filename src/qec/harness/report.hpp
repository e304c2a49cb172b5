/**
 * @file
 * Console table formatting for the benchmark binaries.
 *
 * Every bench prints its measured values next to the paper's
 * reported numbers; the helpers here keep that output consistent.
 */

#ifndef QEC_HARNESS_REPORT_HPP
#define QEC_HARNESS_REPORT_HPP

#include <string>
#include <vector>

namespace qec
{

/** Fixed-width console table with a title and column headers. */
class ReportTable
{
  public:
    ReportTable(std::string title, std::vector<std::string> headers);

    /** Add one row (cells already formatted). */
    void addRow(std::vector<std::string> cells);

    /** Render with aligned columns. */
    std::string str() const;

    /** Render and print to stdout. */
    void print() const;

    /**
     * Machine-readable rendering:
     * {"title": ..., "headers": [...], "rows": [[...], ...]}.
     * Cells are the already-formatted strings of the console view,
     * so one schema covers every bench (docs/benchmarks.md).
     */
    std::string json() const;

    const std::string &title() const { return title_; }

  private:
    std::string title_;
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows;
};

/** "3.4e-15" style scientific formatting. */
std::string formatSci(double value);

/** "12.3" fixed formatting with one decimal. */
std::string formatFixed(double value, int decimals = 1);

/** "2.5x" ratio formatting (against a baseline). */
std::string formatRatio(double value, double baseline);

/** JSON string literal: escapes and surrounds with quotes. */
std::string jsonQuote(const std::string &text);

} // namespace qec

#endif // QEC_HARNESS_REPORT_HPP
