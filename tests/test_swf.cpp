#include "traces/swf.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace gridsub::traces {
namespace {

// Two jobs in SWF's 18-field layout: submit=100/160, runtime=300/120,
// uid=7/8, gid=1/1.
constexpr const char* kTwoJobs =
    "; Version: 2.2\n"
    "; Computer: LPC cluster\n"
    "1 100 5 300 1 -1 -1 1 600 -1 1 7 1 -1 1 -1 -1 -1\n"
    "2 160 9 120 1 -1 -1 1 600 -1 1 8 1 -1 1 -1 -1 -1\n";

TEST(Swf, ParsesJobsAndRebasesToZero) {
  std::stringstream ss(kTwoJobs);
  SwfReadReport report;
  const Workload w = read_swf(ss, "lpc", {}, &report);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w.name(), "lpc");
  // First arrival rebased to 0; the 60 s gap is preserved.
  EXPECT_DOUBLE_EQ(w.jobs()[0].arrival, 0.0);
  EXPECT_DOUBLE_EQ(w.jobs()[1].arrival, 60.0);
  EXPECT_DOUBLE_EQ(w.jobs()[0].runtime, 300.0);
  EXPECT_EQ(w.jobs()[0].user, 7);
  EXPECT_EQ(w.jobs()[1].user, 8);
  EXPECT_EQ(w.jobs()[0].group, 1);
  EXPECT_EQ(report.accepted, 2u);
  EXPECT_EQ(report.dropped, 0u);
}

TEST(Swf, ToleratesCrlfBlankLinesAndIndentedComments) {
  std::stringstream ss(
      "; header\r\n"
      "\r\n"
      "   ; indented comment\r\n"
      "1 10 0 50 1 -1 -1 1 100 -1 1 3 2 -1 1 -1 -1 -1\r\n");
  const Workload w = read_swf(ss, "crlf");
  ASSERT_EQ(w.size(), 1u);
  EXPECT_DOUBLE_EQ(w.jobs()[0].runtime, 50.0);
  EXPECT_EQ(w.jobs()[0].user, 3);
  EXPECT_EQ(w.jobs()[0].group, 2);
}

TEST(Swf, MissingRuntimeFallsBackToRequestedTime) {
  std::stringstream ss(
      "1 10 0 -1 1 -1 -1 1 450 -1 1 3 2 -1 1 -1 -1 -1\n");
  const Workload w = read_swf(ss, "fallback");
  ASSERT_EQ(w.size(), 1u);
  EXPECT_DOUBLE_EQ(w.jobs()[0].runtime, 450.0);
}

TEST(Swf, DropsJobsWithNoUsableRuntimeOrSubmit) {
  std::stringstream ss(
      "1 10 0 -1 1 -1 -1 1 -1 -1 1 3 2 -1 1 -1 -1 -1\n"   // no runtime at all
      "2 -5 0 60 1 -1 -1 1 100 -1 1 3 2 -1 1 -1 -1 -1\n"  // negative submit
      "3 20 0 60 1 -1 -1 1 100 -1 1 3 2 -1 1 -1 -1 -1\n");
  SwfReadReport report;
  const Workload w = read_swf(ss, "drops", {}, &report);
  EXPECT_EQ(w.size(), 1u);
  EXPECT_EQ(report.dropped, 2u);
  EXPECT_EQ(report.accepted, 1u);
}

TEST(Swf, ThrowsOnTruncatedLine) {
  std::stringstream ss("1 10 0\n");
  EXPECT_THROW(read_swf(ss, "short"), std::runtime_error);
}

TEST(Swf, ThrowsOnNonNumericField) {
  std::stringstream ss("1 10 0 abc 1 -1 -1 1 100 -1 1 3 2 -1 1 -1 -1 -1\n");
  EXPECT_THROW(read_swf(ss, "junk"), std::runtime_error);
}

TEST(Swf, ShortButUsableLineParses) {
  // Only the first four fields are required for replay.
  std::stringstream ss("1 10 0 60\n");
  const Workload w = read_swf(ss, "minimal");
  ASSERT_EQ(w.size(), 1u);
  EXPECT_DOUBLE_EQ(w.jobs()[0].runtime, 60.0);
  EXPECT_EQ(w.jobs()[0].user, -1);
  EXPECT_EQ(w.jobs()[0].group, -1);
}

TEST(Swf, OutOfRangeIdsMapToUnknown) {
  // A corrupt archive with a uid beyond int range must not hit the UB of
  // an out-of-range double->int cast.
  std::stringstream ss(
      "1 10 0 60 1 -1 -1 1 100 -1 1 5000000000 2 -1 1 -1 -1 -1\n");
  const Workload w = read_swf(ss, "corrupt");
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w.jobs()[0].user, -1);
  EXPECT_EQ(w.jobs()[0].group, 2);
}

TEST(Swf, UserFilterIsolatesOneSubmitter) {
  std::stringstream ss(kTwoJobs);
  SwfReadOptions options;
  options.user = 8;
  SwfReadReport report;
  const Workload w = read_swf(ss, "vo", options, &report);
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w.jobs()[0].user, 8);
  EXPECT_EQ(report.accepted, 1u);
  EXPECT_EQ(report.filtered, 1u);
  EXPECT_EQ(report.dropped, 0u);
}

TEST(Swf, GroupFilterAndCombinedFilters) {
  std::stringstream ss(
      "1 10 0 60 1 -1 -1 1 100 -1 1 3 2 -1 1 -1 -1 -1\n"
      "2 20 0 60 1 -1 -1 1 100 -1 1 3 9 -1 1 -1 -1 -1\n"
      "3 30 0 60 1 -1 -1 1 100 -1 1 4 2 -1 1 -1 -1 -1\n");
  SwfReadOptions by_group;
  by_group.group = 2;
  std::stringstream ss2(ss.str());
  EXPECT_EQ(read_swf(ss2, "g", by_group).size(), 2u);

  SwfReadOptions both;
  both.user = 3;
  both.group = 2;
  SwfReadReport report;
  const Workload w = read_swf(ss, "ug", both, &report);
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(report.filtered, 2u);
}

TEST(Swf, ForEachStreamsWithoutMaterializingAndStopsEarly) {
  std::stringstream ss(
      "1 500 0 60 1 -1 -1 1 100 -1 1 3 2 -1 1 -1 -1 -1\n"
      "2 100 0 60 1 -1 -1 1 100 -1 1 3 2 -1 1 -1 -1 -1\n"
      "3 200 0 60 1 -1 -1 1 100 -1 1 3 2 -1 1 -1 -1 -1\n");
  std::size_t seen = 0;
  double first_submit = -1.0;
  SwfReadReport report;
  for_each_swf_job(
      ss, {},
      [&](const WorkloadJob& job) {
        if (seen++ == 0) first_submit = job.arrival;
        return seen < 2;  // stop after the second job
      },
      &report);
  EXPECT_EQ(seen, 2u);
  EXPECT_EQ(report.lines, 2u);  // the third line is never read
  // Streaming hands out raw archive times in file order: no sort, no
  // rebase (those are read_swf's post-passes).
  EXPECT_DOUBLE_EQ(first_submit, 500.0);
}

TEST(Swf, UnsortedSubmitsComeOutSorted) {
  std::stringstream ss(
      "1 500 0 60 1 -1 -1 1 100 -1 1 3 2 -1 1 -1 -1 -1\n"
      "2 100 0 60 1 -1 -1 1 100 -1 1 3 2 -1 1 -1 -1 -1\n");
  const Workload w = read_swf(ss, "unsorted");
  ASSERT_EQ(w.size(), 2u);
  EXPECT_DOUBLE_EQ(w.jobs()[0].arrival, 0.0);
  EXPECT_DOUBLE_EQ(w.jobs()[1].arrival, 400.0);
}

TEST(Swf, MissingFileThrows) {
  EXPECT_THROW(read_swf_file("/nonexistent/archive.swf"),
               std::runtime_error);
}

}  // namespace
}  // namespace gridsub::traces
