#include "jade/obs/tracer.hpp"

namespace jade::obs {

void Tracer::attach(TraceSink* sink, Clock clock) {
  sink_ = sink;
  clock_ = std::move(clock);
}

void Tracer::emit(EventKind kind, Subsystem cat, const char* name,
                  std::uint64_t id, MachineId machine, SimTime ts,
                  double value, std::string detail) {
  TraceEvent ev;
  ev.kind = kind;
  ev.cat = cat;
  ev.name = name;
  ev.id = id;
  ev.machine = machine;
  ev.ts = ts;
  ev.value = value;
  ev.detail = std::move(detail);
  sink_->record(std::move(ev));
}

}  // namespace jade::obs
