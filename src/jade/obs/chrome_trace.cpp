#include "jade/obs/chrome_trace.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <vector>

#include "jade/support/error.hpp"
#include "jade/support/stats.hpp"

namespace jade::obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

/// Virtual seconds -> microseconds, fixed precision (sub-ns resolution),
/// locale-independent.
std::string ts_us(SimTime seconds) {
  return format_double(seconds * 1e6, 3);
}

const char* phase_of(EventKind kind) {
  switch (kind) {
    case EventKind::kSpanBegin: return "b";
    case EventKind::kSpanEnd: return "e";
    case EventKind::kInstant: return "i";
    case EventKind::kCounter: return "C";
  }
  return "i";
}

void write_event(std::ostream& os, const TraceEvent& ev) {
  const int tid = ev.machine + 1;  // -1 (no machine) -> tid 0, the host track
  os << "{\"ph\":\"" << phase_of(ev.kind) << "\",\"cat\":\""
     << subsystem_name(ev.cat) << "\",\"name\":\"" << json_escape(ev.name)
     << "\",\"pid\":1,\"tid\":" << tid << ",\"ts\":" << ts_us(ev.ts);
  if (ev.kind == EventKind::kSpanBegin || ev.kind == EventKind::kSpanEnd)
    os << ",\"id\":\"0x" << std::hex << ev.id << std::dec << "\"";
  if (ev.kind == EventKind::kInstant) os << ",\"s\":\"t\"";
  // args
  os << ",\"args\":{";
  bool first = true;
  auto arg = [&](const std::string& kv) {
    if (!first) os << ",";
    os << kv;
    first = false;
  };
  if (ev.kind == EventKind::kCounter)
    arg("\"value\":" + format_double(ev.value, 6));
  else if (ev.value != 0)
    arg("\"value\":" + format_double(ev.value, 6));
  if (!ev.detail.empty())
    arg("\"detail\":\"" + json_escape(ev.detail) + "\"");
  if (ev.kind == EventKind::kInstant || ev.kind == EventKind::kSpanBegin)
    arg("\"id\":" + std::to_string(ev.id));
  os << "}}";
}

}  // namespace

void write_chrome_trace(std::ostream& os, std::span<const TraceEvent> events) {
  std::vector<const TraceEvent*> ordered;
  ordered.reserve(events.size());
  for (const TraceEvent& ev : events) ordered.push_back(&ev);
  std::sort(ordered.begin(), ordered.end(),
            [](const TraceEvent* a, const TraceEvent* b) {
              if (a->ts != b->ts) return a->ts < b->ts;
              return a->seq < b->seq;
            });

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  // Track metadata: name the process and every machine track that appears.
  os << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"jade\"}}";
  std::set<int> tids;
  for (const TraceEvent* ev : ordered) tids.insert(ev->machine + 1);
  for (int tid : tids) {
    const std::string label =
        tid == 0 ? "host" : "machine " + std::to_string(tid - 1);
    os << ",\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":"
       << tid << ",\"args\":{\"name\":\"" << label << "\"}}";
  }
  for (const TraceEvent* ev : ordered) {
    os << ",\n";
    write_event(os, *ev);
  }
  os << "\n]}\n";
}

void write_chrome_trace_file(const std::string& path,
                             const TraceRecorder& recorder) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out)
    throw ConfigError("cannot open trace output file: " + path);
  const auto events = recorder.snapshot();
  write_chrome_trace(out, events);
}

std::string trace_text_summary(std::span<const TraceEvent> events) {
  // (category, name) -> count; spans counted once at their end.
  std::map<std::pair<std::string, std::string>, std::uint64_t> counts;
  for (const TraceEvent& ev : events) {
    if (ev.kind == EventKind::kSpanBegin) continue;
    ++counts[{subsystem_name(ev.cat), ev.name}];
  }
  TextTable table({"category", "event", "count"});
  for (const auto& [key, n] : counts)
    table.add_row({key.first, key.second, std::to_string(n)});
  std::ostringstream os;
  table.print(os);
  return os.str();
}

}  // namespace jade::obs
