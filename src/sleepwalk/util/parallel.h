// The library's one worker pool: a fork-join parallel-for.
//
// Every parallel stage (the executor's block workers, the store
// campaign's segment workers, the classify sweep, dataset reanalysis)
// fans out through ParallelFor, so thread start, join and exception
// handling are written once. sleeplint's no-raw-thread rule keeps it
// that way: util/parallel and the admin server's listener (serve/) are
// the only library paths that may name std::thread (DESIGN.md §8.1).
//
// There is no persistent pool and no options: each call starts its
// threads and joins them before it returns. Callers decide the worker
// count and how work is shared (a claim counter, contiguous ranges from
// SplitRange, or a work queue), so output order never depends on which
// thread ran what.
#ifndef SLEEPWALK_UTIL_PARALLEL_H_
#define SLEEPWALK_UTIL_PARALLEL_H_

#include <cstddef>
#include <functional>
#include <vector>

namespace sleepwalk::util {

/// Number of workers a default-configured stage uses: the hardware
/// concurrency, floored at 1.
int HardwareWorkers() noexcept;

/// Calls `body(w)` once for every w in [0, workers): body(0) on the
/// calling thread, each other w on a thread of its own. Returns after
/// every body has returned. An exception escaping body(0) is rethrown
/// only after every started thread has been joined; one escaping any
/// other body terminates the process, as it would from a std::thread:
/// body(0) may be waiting on that body's output (the executor's commit
/// loop waits for every block), so a quiet rethrow could hang instead.
/// workers == 1 starts no thread at all.
void ParallelFor(std::size_t workers,
                 const std::function<void(std::size_t)>& body);

/// Half-open block range [begin, end).
struct Range {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Cuts [0, n) into contiguous chunks of ceil(n / parts) (parts floored
/// at 1) and returns the non-empty ones in order: at most `parts`
/// ranges, none when n == 0. The chunks tile [0, n) with no gap or
/// overlap.
std::vector<Range> SplitRange(std::size_t n, std::size_t parts);

}  // namespace sleepwalk::util

#endif  // SLEEPWALK_UTIL_PARALLEL_H_
