#include "sleepwalk/util/parallel.h"

#include <algorithm>
#include <exception>
#include <thread>

namespace sleepwalk::util {

int HardwareWorkers() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void ParallelFor(std::size_t workers,
                 const std::function<void(std::size_t)>& body) {
  std::vector<std::thread> threads;
  std::exception_ptr error;
  // A failed thread start lands in the same catch as a throw from
  // body(0): the threads already running are joined either way.
  try {
    if (workers > 1) threads.reserve(workers - 1);
    for (std::size_t w = 1; w < workers; ++w) {
      threads.emplace_back([&body, w] { body(w); });
    }
    if (workers > 0) body(0);
  } catch (...) {
    error = std::current_exception();
  }
  for (auto& thread : threads) thread.join();
  if (error) std::rethrow_exception(error);
}

std::vector<Range> SplitRange(std::size_t n, std::size_t parts) {
  std::vector<Range> ranges;
  if (n == 0) return ranges;
  parts = std::max<std::size_t>(parts, 1);
  const std::size_t chunk = (n + parts - 1) / parts;
  for (std::size_t begin = 0; begin < n; begin += chunk) {
    ranges.push_back({begin, std::min(n, begin + chunk)});
  }
  return ranges;
}

}  // namespace sleepwalk::util
