#pragma once

// Standard Workload Format (SWF) reader.
//
// SWF is the Parallel Workloads Archive interchange format used by the
// grid-workload studies the ROADMAP cites (Medernach's LPC analysis,
// Guazzone's grid mining): one job per line, 18 whitespace-separated
// fields, `;`-prefixed comment/header lines. We project each job onto the
// four columns the replay subsystem needs — submit time, runtime, user id,
// group id — and normalize the result into a Workload (sorted by arrival,
// rebased to t=0).
//
// The reader is deliberately tolerant of the archive's real-world warts:
// CRLF line endings, blank lines, comments anywhere, and the `-1`
// missing-value convention (a missing runtime, field 4, falls back to the
// requested time, field 9; jobs with no usable runtime or a negative
// submit time are dropped and counted, not fatal). Structurally malformed
// data lines (fewer than 4 fields, non-numeric or garbled values, lines
// past the size cap) throw TraceFormatError (trace_error.hpp) with the
// offending line number — corruption is a typed error, never a silently
// shortened record.

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>

#include "traces/workload.hpp"

namespace gridsub::traces {

struct SwfReadOptions {
  /// Keep only jobs of this user / group id (-1 = no filter). This is how
  /// VO-level submission patterns are isolated from a site archive; filters
  /// apply while streaming, before the sink sees a job.
  int user = -1;
  int group = -1;
};

/// Per-parse accounting, filled by read_swf / for_each_swf_job.
struct SwfReadReport {
  std::size_t lines = 0;          ///< data lines seen (comments excluded)
  std::size_t accepted = 0;       ///< jobs kept
  std::size_t dropped = 0;        ///< jobs skipped (missing runtime/submit)
  std::size_t filtered = 0;       ///< jobs excluded by user/group filters
};

/// Streaming core: parses line by line and hands each accepted job to
/// `sink` without materializing the log — month-long archives cost O(1)
/// memory beyond what the sink keeps. Jobs arrive in archive order with
/// raw submit times (per the SWF spec these are relative to the log start;
/// no sorting or rebasing happens here). The sink is the one cap: it
/// returns false to stop the stream (gridsub_swfconvert's --max-jobs), so
/// the rest of the archive is never parsed. user/group in `options` are
/// honoured as in read_swf.
void for_each_swf_job(std::istream& is, const SwfReadOptions& options,
                      const std::function<bool(const WorkloadJob&)>& sink,
                      SwfReadReport* report = nullptr);

/// Parses SWF text into a Workload named `name`. See header comment for
/// tolerance rules; `report` (optional) receives parse accounting.
Workload read_swf(std::istream& is, const std::string& name,
                  const SwfReadOptions& options = {},
                  SwfReadReport* report = nullptr);

/// Opens and parses an SWF file; the workload is named after the path's
/// final component.
Workload read_swf_file(const std::string& path,
                       const SwfReadOptions& options = {},
                       SwfReadReport* report = nullptr);

}  // namespace gridsub::traces
