// Chrome trace-event / Perfetto JSON exporter, plus a deterministic text
// summary of a trace.
//
// The output is the Trace Event Format's JSON-object form
// ({"traceEvents":[...]}): load it at chrome://tracing or ui.perfetto.dev.
// Mapping:
//   * spans    -> async begin/end pairs ("ph":"b"/"e"), correlated by id —
//                 async rather than duration events because Jade spans on
//                 one machine legitimately overlap (multiple task contexts);
//   * instants -> "ph":"i" (thread scope);
//   * counters -> "ph":"C";
//   * metadata records name the process "jade" and each machine's track.
// pid is always 1 (one simulated cluster); tid is machine + 1 (tid 1 =
// machine 0; events with no machine land on tid 0, the "host" track).
// Timestamps are virtual seconds scaled to microseconds.
//
// Determinism: events are ordered by (ts, seq) with a locale-independent
// fixed-precision number format, so two runs that record the same stream —
// e.g. two SimEngine runs with the same seed — export byte-identical files.
#pragma once

#include <iosfwd>
#include <span>
#include <string>

#include "jade/obs/sink.hpp"

namespace jade::obs {

void write_chrome_trace(std::ostream& os, std::span<const TraceEvent> events);

/// Convenience: snapshot + write to a file.  Throws ConfigError when the
/// file cannot be opened.
void write_chrome_trace_file(const std::string& path,
                             const TraceRecorder& recorder);

/// Deterministic text summary: per (category, event name), the number of
/// occurrences (spans counted once, by their end event).
std::string trace_text_summary(std::span<const TraceEvent> events);

/// JSON string escaping (exposed for tests).
std::string json_escape(std::string_view s);

}  // namespace jade::obs
