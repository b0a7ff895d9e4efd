// The discrete-event simulation coordinator.
//
// Owns the virtual clock, the event queue and all processes.  Everything
// runs on the thread that calls run(): the coordinator pops events in
// (time, sequence) order; an event is either a plain callback or a "resume
// process P" action, which switches to P's fiber until P parks again.
// Because scheduling order is deterministic and only one context runs at a
// time, an entire simulation is a deterministic function of its inputs.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "jade/sim/event_queue.hpp"
#include "jade/sim/process.hpp"
#include "jade/support/time.hpp"

namespace jade {

class Simulation {
 public:
  Simulation();
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime now() const { return now_; }

  /// Schedules a plain event.  Callable from the coordinator or from inside
  /// a process.
  void schedule(SimTime t, std::function<void()> fn);
  void schedule_in(SimTime dt, std::function<void()> fn) {
    schedule(now_ + dt, std::move(fn));
  }

  /// Creates a process whose body starts running at time `at` (default: now).
  /// The body runs on a fiber borrowed from this simulation's pool from its
  /// first run until it finishes.
  Process* spawn(std::string name, std::function<void()> body);
  Process* spawn_at(SimTime at, std::string name, std::function<void()> body);

  /// From inside a process: blocks until some other activity resumes it.
  /// The caller must have arranged exactly one future resume.
  void park();

  /// Schedules process `p` (currently parked, or parking imminently at this
  /// virtual time) to resume at time `t` (default now).  Exactly one resume
  /// may be pending per parked period.
  void resume(Process* p) { resume_at(p, now_); }
  void resume_at(Process* p, SimTime t);

  /// From inside a process: advances that process's local activity by `dt`
  /// of virtual time (schedules its own resume and parks).
  void advance(SimTime dt);

  /// Kills a process that is not currently running (fault injection): a
  /// parked process unwinds its stack immediately (its park() throws); a
  /// created-but-unstarted process never starts.  Either way the process is
  /// marked abandoned, so events already scheduled for it become no-ops —
  /// including the one pending resume a parked process was owed.
  void abort(Process* p);

  /// The process currently running, or nullptr when called from an event
  /// callback / outside run().
  Process* current() const { return current_; }

  /// Runs until no events remain.  Throws InternalError if processes remain
  /// parked with no pending events (simulated deadlock), and rethrows the
  /// first exception that escaped a process body.
  void run();

  /// Number of processes that are parked (not done); used for deadlock
  /// diagnostics and by tests.
  std::size_t parked_count() const;

  /// Number of processes the simulation still holds.  A run() that drains
  /// its queue frees every process that is not parked, so afterwards only
  /// stalled ones remain.
  std::size_t process_count() const { return processes_.size(); }

  /// Total events executed; a cheap progress / cost metric for benches.
  std::uint64_t events_executed() const { return events_executed_; }

  /// True while the destructor is unwinding parked processes; park() turns
  /// into a cooperative stack unwind when set.
  bool tearing_down() const { return tearing_down_; }

 private:
  friend class Process;

  /// Hands control to `p` (starting it on first use) until it parks or
  /// finishes, stashing any exception that escaped its body.
  void run_process(Process* p);

  EventQueue queue_;
  SimTime now_ = 0;
  Process* current_ = nullptr;
  FiberPool fibers_;  ///< declared before processes_, which borrow from it
  std::vector<std::unique_ptr<Process>> processes_;
  std::uint64_t events_executed_ = 0;
  bool running_ = false;
  bool tearing_down_ = false;
  std::exception_ptr first_error_;
};

}  // namespace jade
