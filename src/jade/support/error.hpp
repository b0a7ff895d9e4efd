// Error types for the Jade runtime.
//
// The paper's implementation "dynamically checks each task's accesses to
// ensure that its access specification is correct.  If a task attempts to
// perform an undeclared access, the implementation generates an error."
// (Section 5, "Access Checking").  We surface those errors as exceptions so
// tests can assert on them precisely.
#pragma once

#include <stdexcept>
#include <string>

namespace jade {

/// Base class of all errors raised by the Jade runtime.
class JadeError : public std::runtime_error {
 public:
  explicit JadeError(const std::string& what) : std::runtime_error(what) {}
};

/// A task touched a shared object without having declared (or retained) the
/// required access right, or while the right was still deferred.
class UndeclaredAccessError : public JadeError {
 public:
  explicit UndeclaredAccessError(const std::string& what) : JadeError(what) {}
};

/// A with-cont tried to change an access specification in a way the model
/// forbids (e.g. adding a brand-new right mid-task, or converting a right
/// that was never declared deferred).
class SpecUpdateError : public JadeError {
 public:
  explicit SpecUpdateError(const std::string& what) : JadeError(what) {}
};

/// A child task declared an access its parent's specification does not cover
/// (Section 4.4: "The access specification of a task that hierarchically
/// creates child tasks must declare both its own accesses and the accesses
/// performed by all of its child tasks.")
class HierarchyViolationError : public JadeError {
 public:
  explicit HierarchyViolationError(const std::string& what) : JadeError(what) {}
};

/// A server tenant's task declared an access to another tenant's shared
/// object.  Raised at task creation — the single chokepoint through which
/// every access right enters a task graph — so the offending tenant fails
/// before it can observe or serialize against foreign data.
class TenantIsolationError : public JadeError {
 public:
  explicit TenantIsolationError(const std::string& what) : JadeError(what) {}
};

/// Invalid runtime / platform configuration.
class ConfigError : public JadeError {
 public:
  explicit ConfigError(const std::string& what) : JadeError(what) {}
};

/// The fault-tolerance subsystem (ft/) cannot mask a failure: the sole copy
/// of a live object died with its machine (and stable storage is off), or a
/// killed task was pinned to the crashed machine.  Serial semantics makes
/// re-execution sound, but it cannot resurrect bytes nobody else holds.
class UnrecoverableError : public JadeError {
 public:
  explicit UnrecoverableError(const std::string& what) : JadeError(what) {}
};

/// A malformed, truncated, or otherwise un-decodable message arrived on a
/// cluster link (src/jade/cluster): bad frame magic/version, a payload that
/// does not parse as its declared message type, or trailing garbage.  Raised
/// instead of undefined behaviour so a corrupt peer can never crash the
/// coordinator silently.
class ProtocolError : public JadeError {
 public:
  explicit ProtocolError(const std::string& what) : JadeError(what) {}
};

/// Internal invariant failure; indicates a bug in the runtime itself.
class InternalError : public JadeError {
 public:
  explicit InternalError(const std::string& what) : JadeError(what) {}
};

/// Base of the runtime's own stack-unwinding signals: a simulated process
/// aborted by fault injection or teardown, a ThreadEngine task unwound
/// because another task already failed.  They are not task failures —
/// tenant containment and speculative attempts let them pass — so they
/// always reach the engine code that raised them for.
struct EngineUnwind {};

namespace detail {
[[noreturn]] void throw_internal(const char* file, int line, const char* expr,
                                 const std::string& msg);
}  // namespace detail

/// Checks a runtime-internal invariant; throws InternalError on failure.
#define JADE_ASSERT(expr)                                                  \
  do {                                                                     \
    if (!(expr)) {                                                         \
      ::jade::detail::throw_internal(__FILE__, __LINE__, #expr, "");       \
    }                                                                      \
  } while (0)

#define JADE_ASSERT_MSG(expr, msg)                                         \
  do {                                                                     \
    if (!(expr)) {                                                         \
      ::jade::detail::throw_internal(__FILE__, __LINE__, #expr, (msg));    \
    }                                                                      \
  } while (0)

}  // namespace jade
