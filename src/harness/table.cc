#include "harness/table.h"

#include <cstdio>
#include <utility>

namespace lifeguard::harness {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::render() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    width[c] = headers_[c].size();
    for (const auto& row : rows_) width[c] = std::max(width[c], row[c].size());
  }
  auto pad = [](const std::string& s, std::size_t w, bool left) {
    std::string out;
    if (left) {
      out = s + std::string(w - s.size(), ' ');
    } else {
      out = std::string(w - s.size(), ' ') + s;
    }
    return out;
  };
  std::string out;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      out += pad(cells[c], width[c], c == 0);
      out += c + 1 == cells.size() ? "\n" : "  ";
    }
  };
  emit_row(headers_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < width.size(); ++c) total += width[c] + 2;
  out += std::string(total > 2 ? total - 2 : 0, '-') + "\n";
  for (const auto& row : rows_) emit_row(row);
  return out;
}

void Table::print() const { std::fputs(render().c_str(), stdout); }

std::string fmt_int(std::int64_t v) { return std::to_string(v); }

std::string fmt_double(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

std::string fmt_pct(double value, double base) {
  if (base == 0.0) return value == 0.0 ? "100.00" : "n/a";
  return fmt_double(100.0 * value / base, 2);
}

std::string fmt_bytes_gib(std::int64_t bytes) {
  return fmt_double(static_cast<double>(bytes) / (1024.0 * 1024.0 * 1024.0), 3);
}

std::string fmt_percentile(const Histogram& h, double q, int decimals) {
  if (h.count() == 0) return "n/a";
  return fmt_double(h.percentile(q), decimals);
}

}  // namespace lifeguard::harness
