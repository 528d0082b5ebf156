// vodlint fixture: [raw-thread].  Lint-only — never compiled.
// The ctest entry asserts --expect raw-thread=3 over this file.
#include <future>
#include <thread>

namespace fixture {

void spawn_all() {
  std::thread worker([] {});        // expected: raw std::thread
  worker.detach();                  // expected: raw .detach()
  auto future = std::async([] {});  // expected: raw std::async
  // vodlint:allow(raw-thread: fixture demonstrates suppression)
  std::thread waived([] {});  // suppressed: reported but not counted
  waived.join();
}

}  // namespace fixture
