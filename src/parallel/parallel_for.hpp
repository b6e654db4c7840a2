#pragma once

// Data-parallel loops over index ranges.
//
// parallel_for partitions [begin, end) into contiguous blocks, one per
// worker, which matches the access pattern of gridsub's workloads (each
// index is an independent MC replication, dataset, or grid row).

#include <cstdint>
#include <functional>

#include "parallel/thread_pool.hpp"

namespace gridsub::par {

/// Executes body(i) for every i in [begin, end), in parallel blocks.
/// Exceptions thrown by any block are rethrown (first one wins).
void parallel_for(std::int64_t begin, std::int64_t end,
                  const std::function<void(std::int64_t)>& body,
                  ThreadPool* pool = nullptr);

/// Block-wise variant: body(block_begin, block_end) per worker block.
/// Useful when per-thread state (e.g. an RNG) must be set up once per block.
void parallel_for_blocked(
    std::int64_t begin, std::int64_t end,
    const std::function<void(std::int64_t, std::int64_t)>& body,
    ThreadPool* pool = nullptr);

}  // namespace gridsub::par
