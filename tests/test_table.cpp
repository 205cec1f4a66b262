#include "core/table.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "core/error.hpp"

namespace frlfi {
namespace {

TEST(Table, RowCountAndCellMismatch) {
  Table t("demo", {"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.row_count(), 1u);
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, FluentRowBuilder) {
  Table t("demo", {"name", "value"});
  t.row().cell("x").num(1.2345, 2);
  t.row().cell("y").num(2.0, 0);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("1.23"), std::string::npos);
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find('y'), std::string::npos);
}

TEST(Table, CellWithoutRowThrows) {
  Table t("", {"a"});
  EXPECT_THROW(t.cell("x"), Error);
}

TEST(FormatFixed, Precision) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(2.0, 0), "2");
  EXPECT_EQ(format_fixed(-1.5, 1), "-1.5");
}

TEST(Heatmap, SetAtRoundTrip) {
  Heatmap h("t", "ber", "episode");
  h.set_col_keys({"0", "100"});
  h.set_row_keys({"0.1", "0.2", "0.3"});
  EXPECT_EQ(h.rows(), 3u);
  EXPECT_EQ(h.cols(), 2u);
  h.set(2, 1, 98.5);
  EXPECT_DOUBLE_EQ(h.at(2, 1), 98.5);
  EXPECT_DOUBLE_EQ(h.at(0, 0), 0.0);
}

TEST(Heatmap, OutOfRangeThrows) {
  Heatmap h("t", "r", "c");
  h.set_col_keys({"a"});
  h.set_row_keys({"x"});
  EXPECT_THROW(h.set(1, 0, 1.0), Error);
  EXPECT_THROW(h.at(0, 1), Error);
}

TEST(Heatmap, PrintContainsKeysAndValues) {
  Heatmap h("map", "ber", "ep");
  h.set_col_keys({"c0", "c1"});
  h.set_row_keys({"r0"});
  h.set(0, 0, 42.0);
  std::ostringstream os;
  h.print(os, 0);
  const std::string out = os.str();
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_NE(out.find("r0"), std::string::npos);
  EXPECT_NE(out.find("c1"), std::string::npos);
}

}  // namespace
}  // namespace frlfi
