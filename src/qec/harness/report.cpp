#include "qec/harness/report.hpp"

#include <cstdio>

namespace qec
{

ReportTable::ReportTable(std::string title,
                         std::vector<std::string> headers)
    : title_(std::move(title)), headers_(std::move(headers))
{
}

void
ReportTable::addRow(std::vector<std::string> cells)
{
    cells.resize(headers_.size());
    rows.push_back(std::move(cells));
}

std::string
ReportTable::str() const
{
    std::vector<size_t> widths(headers_.size(), 0);
    for (size_t c = 0; c < headers_.size(); ++c) {
        widths[c] = headers_[c].size();
    }
    for (const auto &row : rows) {
        for (size_t c = 0; c < row.size(); ++c) {
            widths[c] = std::max(widths[c], row[c].size());
        }
    }

    std::string out = "\n== " + title_ + " ==\n";
    const auto emit_row = [&](const std::vector<std::string> &row) {
        for (size_t c = 0; c < row.size(); ++c) {
            out += row[c];
            out.append(widths[c] - row[c].size() + 2, ' ');
        }
        out += '\n';
    };
    emit_row(headers_);
    size_t rule = 0;
    for (size_t w : widths) {
        rule += w + 2;
    }
    out.append(rule, '-');
    out += '\n';
    for (const auto &row : rows) {
        emit_row(row);
    }
    return out;
}

void
ReportTable::print() const
{
    std::fputs(str().c_str(), stdout);
    std::fflush(stdout);
}

std::string
ReportTable::json() const
{
    std::string out = "{\"title\": " + jsonQuote(title_) +
                      ", \"headers\": [";
    for (size_t c = 0; c < headers_.size(); ++c) {
        out += (c ? ", " : "") + jsonQuote(headers_[c]);
    }
    out += "], \"rows\": [";
    for (size_t r = 0; r < rows.size(); ++r) {
        out += r ? ", [" : "[";
        for (size_t c = 0; c < rows[r].size(); ++c) {
            out += (c ? ", " : "") + jsonQuote(rows[r][c]);
        }
        out += "]";
    }
    out += "]}";
    return out;
}

std::string
jsonQuote(const std::string &text)
{
    std::string out = "\"";
    for (char ch : text) {
        switch (ch) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", ch);
                out += buf;
            } else {
                out += ch;
            }
        }
    }
    out += '"';
    return out;
}

std::string
formatSci(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2e", value);
    return buf;
}

std::string
formatFixed(double value, int decimals)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
    return buf;
}

std::string
formatRatio(double value, double baseline)
{
    if (baseline <= 0.0) {
        return "-";
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1fx", value / baseline);
    return buf;
}

} // namespace qec
