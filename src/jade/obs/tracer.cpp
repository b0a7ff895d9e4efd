#include "jade/obs/tracer.hpp"

namespace jade::obs {

void Tracer::attach(TraceRecorder* recorder, Clock clock) {
  rec_ = recorder;
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
  rec_->record(std::move(ev));
}

}  // namespace jade::obs
