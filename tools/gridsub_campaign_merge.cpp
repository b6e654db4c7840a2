// Folds N shard checkpoint files of one campaign into the single
// canonical result JSON — the multi-host story: run each shard with
// `--shard i/N` (or CampaignRunner::run_shard) on its own machine, copy
// the .ckpt files together, merge here. The merged output is
// byte-identical to a single uninterrupted run of the whole campaign
// (see src/exp/campaign.hpp's determinism contract).
//
// The merge is a streamed k-way walk: each file is read line-by-line
// behind a bounded per-file reorder buffer, cells are emitted in global
// flat order through exp::JsonStreamSink, and memory stays
// O(files × min(window, cells)) instead of O(cells). The campaign runner
// bounds checkpoint record disorder to its own reorder window, so the
// default --window has orders-of-magnitude headroom; files shuffled harder
// than that (hand-edited, or from a pre-window gridsub) fail with a clean
// error. A reader only ever buffers distinct cells, so a --window of at
// least the campaign's cell count merges any record order.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cli.hpp"
#include "exp/checkpoint.hpp"
#include "exp/fold.hpp"

namespace {

using namespace gridsub;

std::vector<std::string> split_commas(const std::string& list) {
  std::vector<std::string> out;
  std::stringstream ss(list);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// One checkpoint file being streamed: its header identity, the read
/// cursor, and a bounded flat-indexed buffer of parsed records.
struct ShardReader {
  std::string path;
  std::ifstream is;
  exp::CampaignShard shard;
  std::size_t lineno = 1;  // the header line is already consumed
  std::map<std::size_t, exp::CellResult> buffer;
  bool eof = false;
  bool dropped_partial_tail = false;
  std::size_t records = 0;  // parsed records, duplicates included
};

/// Ring of recently emitted cells, for verifying late duplicate records
/// without holding every emitted cell.
class EmittedRing {
 public:
  explicit EmittedRing(std::size_t window) : slots_(std::max<std::size_t>(
                                                 1, window)) {}

  void remember(std::size_t flat, const exp::CellMetrics& metrics) {
    slots_[flat % slots_.size()] = Entry{flat, metrics};
  }

  /// Verifies a duplicate of an already-emitted cell. Throws on conflict
  /// or when the duplicate is too old to still be in the ring.
  void verify(std::size_t flat, const exp::CellResult& cell,
              const std::string& where) const {
    const std::optional<Entry>& slot = slots_[flat % slots_.size()];
    if (!slot || slot->flat != flat) {
      throw exp::CheckpointError(
          where + ": duplicate record for cell " + std::to_string(flat) +
          " is older than the reorder window — raise --window; a window of "
          "at least the campaign's cell count always suffices");
    }
    if (!exp::same_cell_metrics(slot->metrics, cell.metrics)) {
      throw exp::CheckpointError(where + ": conflicting duplicate record "
                                 "for cell " + std::to_string(flat));
    }
  }

 private:
  struct Entry {
    std::size_t flat = 0;
    exp::CellMetrics metrics;
  };
  std::vector<std::optional<Entry>> slots_;
};

/// Reads the next record line of `reader` into its buffer (or verifies it
/// as a duplicate). Returns false when the file is exhausted.
bool advance(ShardReader& reader, const exp::CampaignAxes& axes,
             std::size_t next_flat, const EmittedRing& ring) {
  std::string line;
  while (true) {
    if (!std::getline(reader.is, line)) {
      reader.eof = true;
      return false;
    }
    ++reader.lineno;
    const bool unterminated = reader.is.eof();
    if (line.empty()) continue;
    const std::string where =
        reader.path + ":" + std::to_string(reader.lineno);
    exp::CellResult cell;
    try {
      cell = exp::parse_checkpoint_record(line, where, axes);
    } catch (const exp::CheckpointError&) {
      if (unterminated) {
        // The expected kill artifact: a clipped final line. Drop it —
        // that cell must exist, whole, in some shard for the merge to
        // complete.
        reader.dropped_partial_tail = true;
        reader.eof = true;
        return false;
      }
      throw;  // a terminated line that fails to parse is corruption
    }
    ++reader.records;
    const std::size_t flat = cell.context.flat;
    if (flat < next_flat) {
      ring.verify(flat, cell, where);  // late duplicate of an emitted cell
      continue;
    }
    const auto it = reader.buffer.find(flat);
    if (it != reader.buffer.end()) {
      if (!exp::same_cell_metrics(it->second.metrics, cell.metrics)) {
        throw exp::CheckpointError(where + ": conflicting duplicate record "
                                   "for cell " + std::to_string(flat));
      }
      continue;  // benign in-file duplicate
    }
    reader.buffer.emplace(flat, std::move(cell));
    return true;
  }
}

/// The streamed merge: k files in, canonical JSON out,
/// O(k × min(window, cells)) memory. Returns the fold summary for --summary.
exp::CampaignSummary merge_streamed(std::vector<ShardReader>& readers,
                                    const exp::CampaignAxes& axes,
                                    std::size_t window, std::ostream& out) {
  exp::JsonStreamSink sink(out);
  sink.begin(axes);
  const std::size_t n = axes.cell_count();
  // Flat indices are below n, so a larger ring would hold nothing more.
  EmittedRing ring(std::min(window, n));
  for (std::size_t flat = 0; flat < n; ++flat) {
    // Pull records until some reader's buffer holds the next cell; a
    // reader whose buffer hits the window without producing it is stalled
    // (its records are shuffled beyond the window).
    ShardReader* holder = nullptr;
    while (holder == nullptr) {
      for (ShardReader& r : readers) {
        if (r.buffer.count(flat) > 0) {
          holder = &r;
          break;
        }
      }
      if (holder != nullptr) break;
      bool progressed = false;
      for (ShardReader& r : readers) {
        if (r.eof || r.buffer.size() >= window) continue;
        if (advance(r, axes, flat, ring)) progressed = true;
      }
      if (progressed) continue;
      const bool stalled =
          std::any_of(readers.begin(), readers.end(),
                      [&](const ShardReader& r) {
                        return !r.eof && r.buffer.size() >= window;
                      });
      if (stalled) {
        throw exp::CheckpointError(
            "cell " + std::to_string(flat) + " of campaign '" + axes.name +
            "' not found within the reorder window — raise --window; a "
            "window of at least the campaign's " + std::to_string(n) +
            " cells always suffices");
      }
      throw exp::CheckpointError(
          "campaign '" + axes.name + "' is incomplete: cell " +
          std::to_string(flat) +
          " is in no checkpoint (did every shard run to completion?)");
    }
    exp::CellResult cell = std::move(holder->buffer.at(flat));
    holder->buffer.erase(flat);
    // Sibling copies of the same cell in other buffers must agree.
    for (ShardReader& r : readers) {
      const auto it = r.buffer.find(flat);
      if (it == r.buffer.end()) continue;
      if (!exp::same_cell_metrics(it->second.metrics, cell.metrics)) {
        throw exp::CheckpointError(
            r.path + ": shards disagree on cell " + std::to_string(flat) +
            " of campaign '" + axes.name + "'");
      }
      r.buffer.erase(it);
    }
    ring.remember(flat, cell.metrics);
    sink.on_cell(cell);
  }
  // Drain the tails: every remaining record duplicates an emitted cell
  // and must still agree with it.
  for (ShardReader& r : readers) {
    while (!r.eof) (void)advance(r, axes, n, ring);
  }
  sink.end();
  return sink.take();
}

}  // namespace

int main(int argc, char** argv) {
  tools::Cli cli(
      "gridsub_campaign_merge",
      "merge campaign shard checkpoints into the canonical result JSON",
      {
          {"--in", "comma-separated checkpoint files to merge"},
          {"--dir", "directory: merge every *.ckpt inside (sorted)"},
          {"--name", "with --dir: only checkpoints of this campaign"},
          {"--out", "output JSON path (default: stdout)"},
          {"--summary", "also print the aggregate table to stderr"},
          {"--window", "reorder window in records, a positive integer "
                       "(default 65536)"},
      },
      {"--summary"});
  cli.parse(argc, argv);

  try {
    std::vector<std::string> paths;
    if (const auto in = cli.get("--in")) {
      paths = split_commas(*in);
    }
    if (const auto dir = cli.get("--dir")) {
      for (const auto& entry : std::filesystem::directory_iterator(*dir)) {
        if (entry.path().extension() == ".ckpt") {
          paths.push_back(entry.path().string());
        }
      }
    }
    std::sort(paths.begin(), paths.end());
    if (paths.empty()) {
      std::fprintf(stderr,
                   "gridsub_campaign_merge: no checkpoints (give --in or "
                   "--dir)\n");
      return 2;
    }

    // A positive integer no larger than 2^53, past which doubles skip
    // integers; merge_streamed caps the ring at the cell count.
    const double window_arg = cli.number_or("--window", 65536.0);
    if (!(window_arg >= 1.0 && window_arg <= 0x1p53 &&
          window_arg == std::floor(window_arg))) {
      std::fprintf(stderr, "gridsub_campaign_merge: --window must be a "
                   "positive integer, got '%s'\n",
                   cli.get_or("--window", "").c_str());
      return 2;
    }
    const auto window = static_cast<std::size_t>(window_arg);
    const auto name_filter = cli.get("--name");

    // Open every file, read just the headers, verify they all describe
    // one campaign, then k-way merge in flat order.
    std::vector<ShardReader> readers;
    std::optional<exp::CampaignAxes> axes;
    for (const std::string& path : paths) {
      ShardReader reader;
      reader.path = path;
      reader.is.open(path, std::ios::binary);
      if (!reader.is) {
        throw exp::CheckpointError("cannot open checkpoint file '" + path +
                                   "'");
      }
      std::string header_line;
      if (!std::getline(reader.is, header_line)) {
        throw exp::CheckpointError(path + ": missing checkpoint header");
      }
      const exp::CheckpointHeader header =
          exp::parse_checkpoint_header(header_line, path);
      if (name_filter && header.axes.name != *name_filter) continue;
      reader.shard = header.shard;
      if (!axes) {
        axes = header.axes;
      } else if (!exp::same_campaign(*axes, header.axes)) {
        throw exp::CheckpointError(
            "merge: checkpoint '" + path + "' is for campaign '" +
            header.axes.name + "', not '" + axes->name +
            "' (axes, replications, and root seed must all agree)");
      }
      readers.push_back(std::move(reader));
    }
    if (readers.empty()) {
      std::fprintf(stderr,
                   "gridsub_campaign_merge: no checkpoints matched "
                   "--name '%s'\n",
                   name_filter ? name_filter->c_str() : "");
      return 2;
    }

    const std::string out = cli.get_or("--out", "-");
    exp::CampaignSummary summary;
    if (out == "-") {
      summary = merge_streamed(readers, *axes, window, std::cout);
    } else {
      std::ofstream os(out, std::ios::binary);
      if (!os) {
        std::fprintf(stderr, "gridsub_campaign_merge: cannot write '%s'\n",
                     out.c_str());
        return 1;
      }
      summary = merge_streamed(readers, *axes, window, os);
      if (!os.flush()) {
        std::fprintf(stderr, "gridsub_campaign_merge: write to '%s' "
                     "failed\n", out.c_str());
        return 1;
      }
    }
    for (const ShardReader& r : readers) {
      std::fprintf(stderr, "[merge] %s: campaign '%s' shard %zu/%zu, %zu "
                   "records%s\n",
                   r.path.c_str(), axes->name.c_str(), r.shard.index,
                   r.shard.count, r.records,
                   r.dropped_partial_tail ? " (partial tail dropped)" : "");
    }
    if (out != "-") {
      std::fprintf(stderr, "[merge] wrote %s (%zu cells, %zu aggregate "
                   "rows, streamed)\n",
                   out.c_str(), axes->cell_count(), summary.rows.size());
    }
    if (cli.flag("--summary")) {
      std::ostringstream table;
      summary.summary_table().print(table);
      std::fputs(table.str().c_str(), stderr);
    }
  } catch (const std::exception& e) {
    // CheckpointError, the folds' metric-consistency logic_error,
    // filesystem errors from --dir — all corruption/IO, all exit 1.
    std::fprintf(stderr, "gridsub_campaign_merge: %s\n", e.what());
    return 1;
  }
  return 0;
}
