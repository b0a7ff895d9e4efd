#include "jade/support/fiber.hpp"

#include <cxxabi.h>
#include <sys/mman.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <system_error>

#if defined(__SANITIZE_ADDRESS__)
#define JADE_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define JADE_FIBER_ASAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define JADE_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define JADE_FIBER_TSAN 1
#endif
#endif

#ifdef JADE_FIBER_ASAN
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef JADE_FIBER_TSAN
#include <sanitizer/tsan_interface.h>
#endif

namespace jade {

namespace {

constexpr std::size_t kStackBytes = std::size_t{8} << 20;
// A frame larger than the guard could step over it into the next stack
// down, so the guard is as wide as the gap Linux keeps below a process's
// main stack (stack_guard_gap, 256 pages).  Only address space is spent.
constexpr std::size_t kGuardBytes = std::size_t{1} << 20;

// The leading two words of the C++ runtime's per-thread exception record
// (__cxa_eh_globals): the stack of caught exceptions and the count of
// uncaught ones.  All fibers share their thread's record, so each switch
// saves the outgoing context's copy and restores the incoming one's.
struct EhGlobals {
  void* caught;
  unsigned int uncaught;
};

// __cxa_get_globals is declared const, which lets the compiler reuse one
// call's result across a switch.  A fiber can be resumed on another thread
// than the one it suspended on, so fetch the record afresh every time.
abi::__cxa_eh_globals* (*volatile get_eh_globals)() = &abi::__cxa_get_globals;

EhGlobals save_eh() {
  EhGlobals eh{};
  std::memcpy(&eh, get_eh_globals(), sizeof eh);
  return eh;
}

void restore_eh(const EhGlobals& eh) {
  std::memcpy(get_eh_globals(), &eh, sizeof eh);
}

#ifdef JADE_FIBER_ASAN
void asan_start(void** fake_stack, const void* bottom, std::size_t bytes) {
  __sanitizer_start_switch_fiber(fake_stack, bottom, bytes);
}
void asan_finish(void* fake_stack, const void** from_bottom,
                 std::size_t* from_bytes) {
  __sanitizer_finish_switch_fiber(fake_stack, from_bottom, from_bytes);
}
#else
void asan_start(void**, const void*, std::size_t) {}
void asan_finish(void*, const void**, std::size_t*) {}
#endif

#ifdef JADE_FIBER_TSAN
void* tsan_create() { return __tsan_create_fiber(0); }
void tsan_destroy(void* fiber) { __tsan_destroy_fiber(fiber); }
void* tsan_current() { return __tsan_get_current_fiber(); }
void tsan_switch(void* fiber) { __tsan_switch_to_fiber(fiber, 0); }
#else
void* tsan_create() { return nullptr; }
void tsan_destroy(void*) {}
void* tsan_current() { return nullptr; }
void tsan_switch(void*) {}
#endif

}  // namespace

Fiber::Fiber() {
  void* map =
      mmap(nullptr, kGuardBytes + kStackBytes, PROT_READ | PROT_WRITE,
           MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
  if (map == MAP_FAILED)
    throw std::system_error(errno, std::generic_category(),
                            "mmap of a fiber stack");
  if (mprotect(map, kGuardBytes, PROT_NONE) != 0) {
    const int err = errno;
    munmap(map, kGuardBytes + kStackBytes);
    throw std::system_error(err, std::generic_category(),
                            "mprotect of a fiber stack guard");
  }
  stack_ = static_cast<char*>(map) + kGuardBytes;
  tsan_fiber_ = tsan_create();
  getcontext(&context_);
  context_.uc_stack.ss_sp = stack_;
  context_.uc_stack.ss_size = kStackBytes;
  context_.uc_link = nullptr;
  // makecontext passes int arguments; hand `this` over as two halves.
  const auto self =
      static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(this));
  makecontext(&context_, reinterpret_cast<void (*)()>(&Fiber::run_entries),
              2, static_cast<unsigned>(self >> 32),
              static_cast<unsigned>(self));
}

Fiber::~Fiber() {
  tsan_destroy(tsan_fiber_);
  munmap(stack_ - kGuardBytes, kGuardBytes + kStackBytes);
}

void Fiber::run_entries(unsigned hi, unsigned lo) {
  auto* self = reinterpret_cast<Fiber*>(static_cast<std::uintptr_t>(
      (std::uint64_t{hi} << 32) | std::uint64_t{lo}));
  asan_finish(nullptr, &self->caller_stack_, &self->caller_stack_bytes_);
  restore_eh(EhGlobals{});  // a fresh context has no exception in flight
  for (;;) {
    self->entry_(self->arg_);
    self->suspend();
  }
}

void Fiber::resume() {
  // Zeroed because ASan's swapcontext interceptor reads the uc_stack of
  // the context it switches to, which swapcontext never fills in.
  ucontext_t caller{};
  caller_ = &caller;
  caller_tsan_ = tsan_current();
  const EhGlobals eh = save_eh();
  void* fake_stack = nullptr;
  asan_start(&fake_stack, stack_, kStackBytes);
  tsan_switch(tsan_fiber_);
  swapcontext(&caller, &context_);
  asan_finish(fake_stack, nullptr, nullptr);
  restore_eh(eh);
}

void Fiber::suspend() {
  const EhGlobals eh = save_eh();
  void* fake_stack = nullptr;
  asan_start(&fake_stack, caller_stack_, caller_stack_bytes_);
  tsan_switch(caller_tsan_);
  swapcontext(&context_, caller_);
  asan_finish(fake_stack, &caller_stack_, &caller_stack_bytes_);
  restore_eh(eh);
}

std::unique_ptr<Fiber> FiberPool::acquire(Fiber::Entry entry, void* arg) {
  std::unique_ptr<Fiber> fiber;
  if (idle_.empty()) {
    fiber = std::make_unique<Fiber>();
  } else {
    fiber = std::move(idle_.back());
    idle_.pop_back();
  }
  fiber->entry_ = entry;
  fiber->arg_ = arg;
  return fiber;
}

void FiberPool::release(std::unique_ptr<Fiber> fiber) {
  idle_.push_back(std::move(fiber));
}

}  // namespace jade
