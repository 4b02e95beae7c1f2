// Fixed-width table rendering for bench output, mirroring the paper's table
// layout (configurations as rows, metrics as columns, plus %-of-SWIM
// columns).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.h"

namespace lifeguard::harness {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);
  /// Render with column widths fitted to content; header separator included.
  std::string render() const;
  /// Render + print to stdout.
  void print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// Formatting helpers.
std::string fmt_int(std::int64_t v);
std::string fmt_double(double v, int decimals);
/// value as a percentage of base ("100.00" when base == 0 and value == 0;
/// "n/a" when base == 0 and value != 0).
std::string fmt_pct(double value, double base);
std::string fmt_bytes_gib(std::int64_t bytes);
/// h's q-quantile with `decimals` digits, or "n/a" when h has no samples
/// (Histogram::percentile() would read 0).
std::string fmt_percentile(const Histogram& h, double q, int decimals);

}  // namespace lifeguard::harness
