// Malformed-input wall for the traces readers: every corruption class in
// tests/corrupt_traces/ — garbled fields, mid-record EOF, garbage
// suffixes, non-finite numbers, missing headers, unknown enum labels —
// must surface as a typed TraceFormatError naming the offending line,
// never as a silently shortened or subtly wrong workload. Oversized lines
// (the no-newline multi-GB "line" case) are generated in memory rather
// than committed.

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "traces/csv_util.hpp"
#include "traces/swf.hpp"
#include "traces/trace_error.hpp"
#include "traces/trace_io.hpp"
#include "traces/workload.hpp"

namespace gridsub::traces {
namespace {

std::string fixture(const std::string& name) {
  return std::string(GRIDSUB_CORRUPT_DIR) + "/" + name;
}

/// EXPECT_THROW plus a message check: errors must name where to look.
template <typename Fn>
void expect_format_error(Fn&& fn, const std::string& expected_fragment) {
  try {
    fn();
    FAIL() << "expected TraceFormatError (" << expected_fragment << ")";
  } catch (const TraceFormatError& e) {
    EXPECT_NE(std::string(e.what()).find(expected_fragment),
              std::string::npos)
        << "actual message: " << e.what();
  }
}

TEST(TraceCorrupt, GarbledSwfFieldIsATypedErrorWithALineNumber) {
  expect_format_error([] { (void)read_swf_file(fixture("garbled.swf")); },
                      "non-numeric field on line 4");
}

TEST(TraceCorrupt, MidRecordSwfEofIsATypedError) {
  expect_format_error([] { (void)read_swf_file(fixture("truncated.swf")); },
                      "truncated line 3");
}

TEST(TraceCorrupt, WorkloadGarbageSuffixIsRejectedNotTruncated) {
  // std::stod would have parsed "12.5abc" as 12.5 — plausible, wrong.
  expect_format_error(
      [] { (void)read_workload_csv_file(fixture("garbage_suffix.csv")); },
      "unparseable line 4");
}

TEST(TraceCorrupt, NonFiniteNumbersAreTypedErrors) {
  // std::from_chars parses "nan" and "inf"; a NaN arrival would reach the
  // simulator's clock and an infinite runtime never completes.
  expect_format_error(
      [] { (void)read_workload_csv_file(fixture("nan_arrival.csv")); },
      "unparseable line 4");
  expect_format_error([] { (void)read_swf_file(fixture("inf_runtime.swf")); },
                      "non-numeric field on line 4");
}

TEST(TraceCorrupt, WorkloadMidRecordEofIsATypedError) {
  expect_format_error(
      [] { (void)read_workload_csv_file(fixture("midrecord.csv")); },
      "malformed line 4");
}

TEST(TraceCorrupt, WorkloadMissingHeaderIsATypedError) {
  expect_format_error(
      [] { (void)read_workload_csv_file(fixture("missing_header.csv")); },
      "missing header");
}

TEST(TraceCorrupt, UnknownProbeStatusIsATypedError) {
  expect_format_error(
      [] { (void)read_csv_file(fixture("bad_status.trace.csv")); },
      "unknown status 'comppleted'");
}

TEST(TraceCorrupt, BadTimeoutMetadataIsATypedError) {
  std::istringstream is(
      "# timeout=soon\n"
      "submit_time,latency,status\n"
      "0.5,120,completed\n");
  expect_format_error([&] { (void)read_csv(is); }, "bad timeout");
}

TEST(TraceCorrupt, OversizedLinesAreRefusedByEveryReader) {
  // A "line" past the cap means a corrupt or hostile file (e.g. gigabytes
  // with no newline); readers must refuse instead of buffering it.
  const std::string huge(detail::kMaxLineBytes + 1, 'x');

  std::istringstream swf("1 0.0 10 3600\n" + huge + "\n");
  expect_format_error([&] { (void)read_swf(swf, "oversized"); },
                      "oversized line 2");

  std::istringstream workload("arrival_time,runtime,user,group\n" + huge +
                              "\n");
  expect_format_error([&] { (void)read_workload_csv(workload); },
                      "oversized line 2");

  std::istringstream trace("submit_time,latency,status\n" + huge + "\n");
  expect_format_error([&] { (void)read_csv(trace); }, "oversized line 2");
}

TEST(TraceCorrupt, TraceFormatErrorIsCatchableAsRuntimeError) {
  // Pre-existing catch (std::runtime_error) sites keep working: the
  // typed error refines, not breaks, the old contract.
  bool caught = false;
  try {
    (void)read_workload_csv_file(fixture("midrecord.csv"));
  } catch (const std::runtime_error&) {
    caught = true;
  }
  EXPECT_TRUE(caught);
}

TEST(TraceCorrupt, CleanPrefixesOfCorruptFilesAreNotSilentlyReturned) {
  // The corrupt fixtures all carry one valid row before the corruption;
  // a reader returning that prefix instead of throwing would look green
  // while dropping data. The throws above prove none does. This test
  // pins the complement: fully valid input still parses.
  std::istringstream ok(
      "# name=clean\n"
      "arrival_time,runtime,user,group\n"
      "0.5,600,3,1\n"
      "300.5,60,4,1\r\n");  // CRLF stays tolerated
  const Workload w = read_workload_csv(ok);
  EXPECT_EQ(w.size(), 2u);
  EXPECT_EQ(w.name(), "clean");

  std::istringstream swf(
      "; comment\n"
      "1 0.0 10 3600 8 -1 -1 8 7200 -1 1 5 2 -1 -1 -1 -1 -1\n");
  const Workload jobs = read_swf(swf, "clean");
  EXPECT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs.jobs()[0].user, 5);
  EXPECT_EQ(jobs.jobs()[0].group, 2);
}

}  // namespace
}  // namespace gridsub::traces
