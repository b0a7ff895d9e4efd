// Fiber — a stackful execution context switched on the calling thread.
//
// SimEngine's cooperative processes (sim/process.hpp) must pause an
// unmodified task body in the middle of a call and continue it later.  A
// Fiber is a stack with a guard region below it, plus the register context
// saved on it: resume() switches from the calling context (a thread, or
// another fiber) into the fiber and returns once the fiber calls suspend()
// or its entry function returns.  Nothing leaves the calling thread, so a
// switch is one glibc swapcontext and never waits on the OS scheduler.
//
// Every switch also swaps the C++ runtime's per-thread record of in-flight
// exceptions: a body that parks inside a catch block and rethrows after it
// resumes must see its own exception, not the one another fiber caught in
// the meantime.  Switches are annotated for AddressSanitizer and
// ThreadSanitizer, which otherwise take a fiber's stack for a corrupted
// thread stack.
#pragma once

#include <ucontext.h>

#include <cstddef>
#include <memory>
#include <vector>

namespace jade {

class Fiber {
 public:
  using Entry = void (*)(void* arg);

  /// Maps the stack: 8 MiB, a default thread's, reserved without
  /// committing memory, above a PROT_NONE guard that turns an overflow into
  /// SIGSEGV.  Throws std::system_error if the mapping fails.
  Fiber();
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Switches into the fiber until it suspends or its entry returns.
  void resume();

  /// From inside the fiber: switches back to the context that resumed it.
  void suspend();

 private:
  friend class FiberPool;

  /// The fiber's first frame: runs each entry it is given, suspending
  /// after each one, and never returns.
  static void run_entries(unsigned hi, unsigned lo);

  char* stack_ = nullptr;  ///< lowest usable byte, above the guard
  Entry entry_ = nullptr;
  void* arg_ = nullptr;
  ucontext_t context_{};  ///< saved while the fiber is not running
  void* tsan_fiber_ = nullptr;

  // The context that last resumed this fiber, where suspend() returns: its
  // saved registers, and its stack and TSan context for the sanitizers.
  ucontext_t* caller_ = nullptr;
  const void* caller_stack_ = nullptr;
  std::size_t caller_stack_bytes_ = 0;
  void* caller_tsan_ = nullptr;
};

/// Recycles fibers: each simulation maps a stack once and reuses it for
/// every process that later runs on it.
class FiberPool {
 public:
  /// A fiber whose next resume() runs entry(arg) from the top of its stack.
  std::unique_ptr<Fiber> acquire(Fiber::Entry entry, void* arg);

  /// Takes back a fiber whose entry has returned.
  void release(std::unique_ptr<Fiber> fiber);

 private:
  std::vector<std::unique_ptr<Fiber>> idle_;
};

}  // namespace jade
