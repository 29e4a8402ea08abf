// Fixture: raw threads in library code outside util/parallel and
// serve/. Construction and hardware_concurrency fire; `#include
// <thread>` and std::this_thread do not, and the allow escape works
// per-rule as usual.
#include <thread>

namespace fixture {

unsigned Fan(auto& body) {
  std::thread worker{body};
  std::jthread joined{body};
  const unsigned hw = std::thread::hardware_concurrency();
  std::this_thread::yield();
  // sleeplint: allow(no-raw-thread)
  std::thread sanctioned{body};
  worker.join();
  sanctioned.join();
  return hw;
}

}  // namespace fixture
