#include "jade/sim/process.hpp"

#include "jade/sim/simulation.hpp"
#include "jade/support/error.hpp"

namespace jade {

namespace {
/// Thrown inside a process to unwind its stack when the simulation tears
/// down or aborts it while it is parked.  Never escapes Process::run_body.
struct ProcessAborted : EngineUnwind {};
}  // namespace

Process::Process(Simulation* sim, std::string name,
                 std::function<void()> body)
    : sim_(sim), name_(std::move(name)), body_(std::move(body)) {}

void Process::start() {
  JADE_ASSERT(state_ == State::kCreated);
  fiber_ = sim_->fibers_.acquire(&Process::run_body, this);
  run_until_parked();
}

void Process::run_body(void* self) {
  auto* p = static_cast<Process*>(self);
  ++p->epoch_;
  p->state_ = State::kRunning;
  try {
    p->body_();
  } catch (const ProcessAborted&) {
    // Cooperative teardown: nothing to record.
  } catch (...) {
    p->error_ = std::current_exception();
  }
  p->state_ = State::kDone;
}

void Process::run_until_parked() {
  JADE_ASSERT(state_ == State::kCreated || state_ == State::kParked);
  fiber_->resume();
  if (state_ == State::kDone) sim_->fibers_.release(std::move(fiber_));
}

void Process::park() {
  state_ = State::kParked;
  fiber_->suspend();
  ++epoch_;
  if (sim_->tearing_down() || abort_requested_) throw ProcessAborted{};
  state_ = State::kRunning;
}

}  // namespace jade
