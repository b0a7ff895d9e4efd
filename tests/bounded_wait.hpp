// A bounded wait for tests of code that could hang (a lost wakeup, a task
// that never becomes ready).  run_bounded runs a callable on its own thread;
// if it has not returned within the limit, the test binary exits with a
// failure.  A hung engine's threads cannot be reclaimed, so ending the
// process is the only way to report the hang instead of stalling the suite.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <thread>
#include <utility>

namespace jade {

template <typename F>
void run_bounded(const char* what, F&& fn,
                 std::chrono::seconds limit = std::chrono::seconds(60)) {
  std::packaged_task<void()> job(std::forward<F>(fn));
  std::future<void> done = job.get_future();
  std::thread runner(std::move(job));
  if (done.wait_for(limit) != std::future_status::ready) {
    std::fprintf(stderr, "%s: still running after %lld s; treated as a hang\n",
                 what, static_cast<long long>(limit.count()));
    std::fflush(stderr);
    std::_Exit(EXIT_FAILURE);
  }
  runner.join();
  done.get();  // rethrows whatever fn threw
}

}  // namespace jade
