// Tracer — the emission facade every instrumented subsystem holds.
//
// Zero-cost when disabled: a detached tracer is a null recorder pointer, and
// every emit method is a single branch on it.  Call sites that would build a
// detail string first must guard with `if (tracer.enabled())` so the string
// work is also skipped.
//
// Timestamps come from a clock callback the owning engine installs
// (SimEngine: the virtual clock; ThreadEngine: wall seconds since attach;
// SerialEngine: a logical event counter).  The *_at variants take an
// explicit timestamp for events whose time is known but is not "now" — a
// network model scheduling an arrival emits the delivery end at the
// arrival's future virtual time.
#pragma once

#include <functional>
#include <string>
#include <utility>

#include "jade/obs/sink.hpp"

namespace jade::obs {

class Tracer {
 public:
  using Clock = std::function<SimTime()>;

  /// Connects the tracer; a null `recorder` detaches it.  `clock` supplies
  /// the `ts` of events emitted without an explicit timestamp.
  void attach(TraceRecorder* recorder, Clock clock);
  void detach() { rec_ = nullptr; }

  bool enabled() const { return rec_ != nullptr; }

  void span_begin(Subsystem cat, const char* name, std::uint64_t id,
                  MachineId machine, std::string detail = {}) {
    if (rec_) emit(EventKind::kSpanBegin, cat, name, id, machine, now(), 0,
                    std::move(detail));
  }
  void span_begin_at(SimTime ts, Subsystem cat, const char* name,
                     std::uint64_t id, MachineId machine,
                     std::string detail = {}) {
    if (rec_) emit(EventKind::kSpanBegin, cat, name, id, machine, ts, 0,
                    std::move(detail));
  }
  void span_end(Subsystem cat, const char* name, std::uint64_t id,
                MachineId machine, double value = 0,
                std::string detail = {}) {
    if (rec_) emit(EventKind::kSpanEnd, cat, name, id, machine, now(), value,
                    std::move(detail));
  }
  void span_end_at(SimTime ts, Subsystem cat, const char* name,
                   std::uint64_t id, MachineId machine, double value = 0,
                   std::string detail = {}) {
    if (rec_) emit(EventKind::kSpanEnd, cat, name, id, machine, ts, value,
                    std::move(detail));
  }
  void instant(Subsystem cat, const char* name, std::uint64_t id,
               MachineId machine, double value = 0,
               std::string detail = {}) {
    if (rec_) emit(EventKind::kInstant, cat, name, id, machine, now(), value,
                    std::move(detail));
  }
  void instant_at(SimTime ts, Subsystem cat, const char* name,
                  std::uint64_t id, MachineId machine, double value = 0,
                  std::string detail = {}) {
    if (rec_) emit(EventKind::kInstant, cat, name, id, machine, ts, value,
                    std::move(detail));
  }
  void counter(Subsystem cat, const char* name, MachineId machine,
               double value) {
    if (rec_) emit(EventKind::kCounter, cat, name, 0, machine, now(), value,
                    {});
  }

 private:
  SimTime now() const { return clock_ ? clock_() : 0; }
  void emit(EventKind kind, Subsystem cat, const char* name,
            std::uint64_t id, MachineId machine, SimTime ts, double value,
            std::string detail);

  TraceRecorder* rec_ = nullptr;
  Clock clock_;
};

}  // namespace jade::obs
