#include "jade/sim/process.hpp"

#include "jade/sim/simulation.hpp"
#include "jade/support/error.hpp"

namespace jade {

namespace {
/// Thrown inside a process thread to unwind its stack when the simulation
/// tears down while the process is parked.  Never escapes thread_main.
struct ProcessAborted : EngineUnwind {};
}  // namespace

Process::Process(Simulation* sim, std::string name,
                 std::function<void()> body)
    : sim_(sim), name_(std::move(name)), body_(std::move(body)) {}

Process::~Process() { join(); }

void Process::start() {
  JADE_ASSERT(state_ == State::kCreated);
  thread_ = std::thread([this] { thread_main(); });
  // The thread begins life "parked" at its initial wait; hand control over.
  run_until_parked();
}

void Process::thread_main() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return go_; });
    go_ = false;
    ++epoch_;
    state_ = State::kRunning;
  }
  try {
    body_();
  } catch (const ProcessAborted&) {
    // Cooperative teardown: nothing to record.
  } catch (...) {
    error_ = std::current_exception();
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    state_ = State::kDone;
    yielded_ = true;
  }
  cv_.notify_all();
}

void Process::run_until_parked() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    JADE_ASSERT(state_ == State::kCreated || state_ == State::kParked);
    go_ = true;
  }
  cv_.notify_all();
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return yielded_; });
  yielded_ = false;
}

void Process::park() {
  std::unique_lock<std::mutex> lock(mutex_);
  state_ = State::kParked;
  yielded_ = true;
  cv_.notify_all();
  cv_.wait(lock, [this] { return go_; });
  go_ = false;
  ++epoch_;
  if (sim_->tearing_down() || abort_requested_) throw ProcessAborted{};
  state_ = State::kRunning;
}

void Process::join() {
  if (thread_.joinable()) thread_.join();
}

}  // namespace jade
