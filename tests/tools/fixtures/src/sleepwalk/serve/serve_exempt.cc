// Fixture: serve/ is the admin plane — sanctioned for raw sockets,
// epoll, wall clocks (a serving loop is a wall phenomenon) and its own
// listener thread. The ambient-RNG ban still applies everywhere.
#include <chrono>
#include <thread>

namespace fixture {

int Serve() {
  int fd = socket(2, 1, 0);
  auto deadline = std::chrono::steady_clock::now();
  (void)deadline;
  std::thread listener{[] {}};
  listener.join();
  return epoll_create1(0) + fd;
}

}  // namespace fixture
