#include "harness/table.h"

#include <gtest/gtest.h>

namespace lifeguard::harness {
namespace {

TEST(Table, RendersAlignedColumns) {
  Table t({"Config", "FP", "FP %"});
  t.add_row({"SWIM", "339002", "100.00"});
  t.add_row({"Lifeguard", "5193", "1.53"});
  const std::string out = t.render();
  EXPECT_NE(out.find("Config"), std::string::npos);
  EXPECT_NE(out.find("Lifeguard"), std::string::npos);
  // Numeric columns right-aligned: "FP" header ends where values end.
  const auto header_end = out.find('\n');
  ASSERT_NE(header_end, std::string::npos);
  // Every line has equal length (fixed-width rendering).
  std::size_t prev = std::string::npos;
  std::size_t start = 0;
  while (start < out.size()) {
    const auto nl = out.find('\n', start);
    if (nl == std::string::npos) break;
    const std::size_t len = nl - start;
    if (prev != std::string::npos) {
      EXPECT_EQ(len, prev);
    }
    prev = len;
    start = nl + 1;
  }
}

TEST(Table, ShortRowsArePadded) {
  Table t({"a", "b", "c"});
  t.add_row({"only-one"});
  EXPECT_NO_THROW({ (void)t.render(); });
}

TEST(Formatting, Integers) {
  EXPECT_EQ(fmt_int(0), "0");
  EXPECT_EQ(fmt_int(-42), "-42");
  EXPECT_EQ(fmt_int(339002), "339002");
}

TEST(Formatting, Doubles) {
  EXPECT_EQ(fmt_double(12.4444, 2), "12.44");
  EXPECT_EQ(fmt_double(0.0, 2), "0.00");
  EXPECT_EQ(fmt_double(99.999, 1), "100.0");
}

TEST(Formatting, Percentages) {
  EXPECT_EQ(fmt_pct(50, 100), "50.00");
  EXPECT_EQ(fmt_pct(5193, 339002), "1.53");
  EXPECT_EQ(fmt_pct(0, 0), "100.00");
  EXPECT_EQ(fmt_pct(5, 0), "n/a");
}

TEST(Formatting, PercentilesOfEmptySampleSetsAreNotApplicable) {
  Histogram h;
  EXPECT_EQ(fmt_percentile(h, 0.5, 2), "n/a");
  h.record(12.0);
  h.record(13.0);
  EXPECT_EQ(fmt_percentile(h, 0.5, 2), "12.50");
  EXPECT_EQ(fmt_percentile(h, 0.0, 1), "12.0");
}

TEST(Formatting, GiB) {
  EXPECT_EQ(fmt_bytes_gib(1024LL * 1024 * 1024), "1.000");
  EXPECT_EQ(fmt_bytes_gib(0), "0.000");
}

}  // namespace
}  // namespace lifeguard::harness
