#pragma once

#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

namespace ugc {

// Ranges with fewer elements than this are not worth spawning threads for —
// create/join overhead would dominate. The single tuning point shared by
// every parallel_for(_chunks) hot path (Merkle level builds, the engine's
// domain sweep): retune it here, not per call site.
inline constexpr std::uint64_t kParallelMinimumWork = 4096;

// Runs fn(i) for i in [begin, end) across up to `threads` workers (0 = use
// hardware concurrency). Blocks until every index is processed. Indices are
// partitioned into contiguous chunks, so adjacent work shares cache.
// If fn throws, every worker is still joined and the first exception is
// rethrown on the calling thread.
//
// Used by the Monte-Carlo benches to parallelize independent trials and by
// the commitment pipeline (Merkle level builds, the participant domain
// sweep); the grid simulation itself stays single-threaded for determinism.
void parallel_for(std::uint64_t begin, std::uint64_t end,
                  const std::function<void(std::uint64_t)>& fn,
                  unsigned threads = 0);

// Lower-overhead variant for tiny loop bodies: partitions [begin, end) into
// one contiguous [lo, hi) chunk per worker and calls fn(lo, hi) once per
// chunk, so the per-index cost is a plain loop iteration instead of a
// std::function dispatch. fn must be safe to call concurrently on disjoint
// chunks. With `threads` = 1 (or a range smaller than two chunks) fn runs
// once on the caller's thread — byte-identical side-effect ordering to a
// serial loop.
void parallel_for_chunks(
    std::uint64_t begin, std::uint64_t end,
    const std::function<void(std::uint64_t, std::uint64_t)>& fn,
    unsigned threads = 0);

}  // namespace ugc
