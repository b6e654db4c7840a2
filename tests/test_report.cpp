#include <gtest/gtest.h>

#include <sstream>

#include "report/series.hpp"
#include "report/table.hpp"

namespace gridsub::report {
namespace {

TEST(Table, RendersAlignedColumns) {
  Table t({"week", "EJ", "delta"});
  t.row().cell(std::string("2006-IX")).cell(471.2, 1).percent(-0.083);
  t.row().cell(std::string("2007-36")).cell(510.0, 1).percent(0.001);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("week"), std::string::npos);
  EXPECT_NE(out.find("471.2"), std::string::npos);
  EXPECT_NE(out.find("-8.3%"), std::string::npos);
  EXPECT_NE(out.find("+0.1%"), std::string::npos);
}

TEST(Table, InfinityRendersAsInf) {
  Table t({"x"});
  t.row().cell(std::numeric_limits<double>::infinity(), 2);
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("inf"), std::string::npos);
}

TEST(Table, CellBeforeRowThrows) {
  Table t({"x"});
  EXPECT_THROW(t.cell(1.0), std::logic_error);
}

TEST(Table, OverfullRowThrows) {
  Table t({"x"});
  t.row().cell(1.0);
  EXPECT_THROW(t.cell(2.0), std::logic_error);
}

TEST(Table, SecondsFormatter) {
  EXPECT_EQ(seconds(471.23), "471s");
  EXPECT_EQ(seconds(std::numeric_limits<double>::infinity()), "inf");
}

TEST(Figure, PrintsSeriesBlocks) {
  Figure fig("test figure", "t", "EJ");
  fig.add("b=1", {1.0, 2.0}, {10.0, 20.0});
  fig.add("b=2", {1.0, 2.0}, {5.0, 15.0});
  std::ostringstream os;
  fig.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("# test figure"), std::string::npos);
  EXPECT_NE(out.find("# series: b=1"), std::string::npos);
  EXPECT_NE(out.find("# series: b=2"), std::string::npos);
  EXPECT_NE(out.find("2 20"), std::string::npos);
}

TEST(Figure, RowLimitStillIncludesLastPoint) {
  std::vector<double> x, y;
  for (int i = 0; i <= 100; ++i) {
    x.push_back(i);
    y.push_back(2 * i);
  }
  Figure fig("dense", "x", "y");
  fig.add("s", x, y);
  std::ostringstream os;
  fig.print(os, 10);
  EXPECT_NE(os.str().find("100 200"), std::string::npos);
}

TEST(Figure, MismatchedSeriesThrows) {
  Figure fig("bad", "x", "y");
  EXPECT_THROW(fig.add("s", {1.0}, {1.0, 2.0}), std::invalid_argument);
}

}  // namespace
}  // namespace gridsub::report
