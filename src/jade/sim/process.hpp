// Cooperative simulated processes.
//
// SimEngine must let an *unmodified* task body pause in virtual time in the
// middle of its execution — that is exactly what a `with-cont` that converts
// a deferred right does (Section 4.2).  C++ cannot suspend a plain function,
// so each simulated activity runs on its own fiber (support/fiber.hpp): a
// full stack, switched on the thread that runs the simulation.  Exactly one
// context runs at any instant (the coordinator or a single process), and
// control changes hands only at spawn, park and resume, so the result is
// deterministic and host parallelism plays no role in the simulated timing.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>

#include "jade/support/fiber.hpp"
#include "jade/support/time.hpp"

namespace jade {

class Simulation;

/// One cooperative activity.  Created via Simulation::spawn; never run
/// directly.
class Process {
 public:
  enum class State : std::uint8_t {
    kCreated,   ///< body not yet started
    kRunning,   ///< owns the simulation (coordinator is waiting)
    kParked,    ///< waiting to be resumed
    kDone,      ///< body returned; its fiber is back in the pool
  };

  Process(Simulation* sim, std::string name, std::function<void()> body);

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  const std::string& name() const { return name_; }
  State state() const { return state_; }

  /// Number of times this process has been unparked; used to detect stale
  /// resume events (each parked period has exactly one designated waker).
  std::uint64_t epoch() const { return epoch_; }

  /// True once Simulation::abort gave up on this process: pending spawn and
  /// resume events for it become no-ops instead of stale-resume errors.
  bool abandoned() const { return abandoned_; }

 private:
  friend class Simulation;

  /// Borrows a fiber from the simulation's pool and runs the body until it
  /// first parks or finishes.  Called by the coordinator.
  void start();

  /// Hands control to this (created or parked) process until it parks
  /// again or finishes; a finished process returns its fiber to the pool.
  /// Called by the coordinator, or by a process aborting this one.
  void run_until_parked();

  /// Called from inside the process: yields control back to whoever ran
  /// it and returns when resumed.
  void park();

  /// The fiber's entry: runs the body and records how it ended.
  static void run_body(void* self);

  Simulation* sim_;
  std::string name_;
  std::function<void()> body_;
  std::unique_ptr<Fiber> fiber_;  ///< held from start() until the body ends
  State state_ = State::kCreated;
  bool abort_requested_ = false;  ///< next unpark unwinds instead of running
  bool abandoned_ = false;        ///< scheduled events for this process no-op
  std::uint64_t epoch_ = 0;
  std::exception_ptr error_;  ///< exception escaping the body, rethrown in run()
};

}  // namespace jade
