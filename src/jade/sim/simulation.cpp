#include "jade/sim/simulation.hpp"

#include <sstream>

#include "jade/support/error.hpp"

namespace jade {

Simulation::Simulation() = default;

Simulation::~Simulation() {
  // Cooperatively unwind any process that is still parked (this happens when
  // run() threw, or when an engine is destroyed mid-flight).
  tearing_down_ = true;
  for (auto& p : processes_) {
    if (p->state() == Process::State::kParked) p->run_until_parked();
  }
}

void Simulation::schedule(SimTime t, std::function<void()> fn) {
  JADE_ASSERT_MSG(t >= now_, "event scheduled in the virtual past");
  queue_.schedule(t, std::move(fn));
}

Process* Simulation::spawn(std::string name, std::function<void()> body) {
  return spawn_at(now_, std::move(name), std::move(body));
}

Process* Simulation::spawn_at(SimTime at, std::string name,
                              std::function<void()> body) {
  processes_.push_back(
      std::make_unique<Process>(this, std::move(name), std::move(body)));
  Process* p = processes_.back().get();
  schedule(at, [this, p] {
    if (p->abandoned()) return;  // aborted before it ever started
    run_process(p);
  });
  return p;
}

void Simulation::park() {
  Process* p = current_;
  JADE_ASSERT_MSG(p != nullptr, "park() called outside any process");
  current_ = nullptr;
  p->park();
  current_ = p;
}

void Simulation::resume_at(Process* p, SimTime t) {
  JADE_ASSERT(p != nullptr);
  JADE_ASSERT_MSG(p->state() != Process::State::kDone,
                  "resume of a finished process");
  const std::uint64_t expected = p->epoch();
  schedule(t, [this, p, expected] {
    if (p->abandoned()) return;  // the waker lost a race with fault injection
    JADE_ASSERT_MSG(p->state() == Process::State::kParked &&
                        p->epoch() == expected,
                    "stale resume for process " + p->name());
    run_process(p);
  });
}

void Simulation::advance(SimTime dt) {
  JADE_ASSERT(dt >= 0);
  Process* p = current_;
  JADE_ASSERT_MSG(p != nullptr, "advance() called outside any process");
  resume_at(p, now_ + dt);
  park();
}

void Simulation::abort(Process* p) {
  JADE_ASSERT(p != nullptr);
  JADE_ASSERT_MSG(p != current_, "a process cannot abort itself");
  switch (p->state()) {
    case Process::State::kCreated:
      p->abandoned_ = true;  // never started; its spawn event no-ops
      break;
    case Process::State::kParked:
      p->abort_requested_ = true;
      p->abandoned_ = true;
      run_process(p);  // its park() throws; the stack unwinds right now
      break;
    default:
      JADE_ASSERT_MSG(false, "abort of a running or finished process");
  }
}

void Simulation::run_process(Process* p) {
  Process* prev = current_;
  current_ = p;
  if (p->state() == Process::State::kCreated) {
    p->start();
  } else {
    p->run_until_parked();
  }
  current_ = prev;
  if (p->error_ && !first_error_) {
    first_error_ = p->error_;
    p->error_ = nullptr;
  }
}

void Simulation::run() {
  JADE_ASSERT_MSG(!running_, "Simulation::run is not reentrant");
  running_ = true;
  while (!queue_.empty() && !first_error_) {
    auto [t, fn] = queue_.pop();
    now_ = t;
    fn();
    ++events_executed_;
  }
  running_ = false;
  // Free every process that is not parked (finished, or aborted before it
  // started), but only once the queue is empty: until then a queued spawn
  // or resume may still point at one.
  if (queue_.empty()) {
    std::erase_if(processes_, [](const std::unique_ptr<Process>& p) {
      return p->state() != Process::State::kParked;
    });
  }
  if (first_error_) {
    auto err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
  if (parked_count() > 0) {
    std::ostringstream os;
    os << "simulation stalled: " << parked_count()
       << " process(es) parked with no pending events:";
    for (const auto& p : processes_)
      if (p->state() == Process::State::kParked) os << ' ' << p->name();
    throw InternalError(os.str());
  }
}

std::size_t Simulation::parked_count() const {
  std::size_t n = 0;
  for (const auto& p : processes_)
    if (p->state() == Process::State::kParked) ++n;
  return n;
}

}  // namespace jade
