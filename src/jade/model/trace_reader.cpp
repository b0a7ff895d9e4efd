#include "jade/model/trace_reader.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <istream>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <unordered_map>

#include "jade/support/error.hpp"

namespace jade::model {

// --- feature extraction ------------------------------------------------------

RunProfile extract_profile(std::span<const obs::TraceEvent> events,
                           const RuntimeStats& stats) {
  RunProfile p;
  p.total_work = stats.total_charged_work;
  p.payload_bytes = static_cast<double>(stats.payload_bytes);
  p.messages = static_cast<double>(stats.messages);
  p.finish_time = stats.finish_time;

  // Deterministic replay order: timestamp, then recording sequence.
  std::vector<const obs::TraceEvent*> ordered;
  ordered.reserve(events.size());
  for (const obs::TraceEvent& ev : events) ordered.push_back(&ev);
  std::sort(ordered.begin(), ordered.end(),
            [](const obs::TraceEvent* a, const obs::TraceEvent* b) {
              if (a->ts != b->ts) return a->ts < b->ts;
              return a->seq < b->seq;
            });

  // The root task is the first "task.created" the run emits; every later
  // creation is a real task.  Parent attribution: a creation on machine m is
  // charged to the *oldest* body still open there.  Under latency hiding a
  // freshly dispatched child can start on its creator's machine while the
  // creator is still spawning; the creator — root, or a spawner task whose
  // ancestors have already retired — is the body that has been open longest,
  // not the one that started last.
  std::uint64_t root_id = 0;
  bool saw_root = false;
  std::map<MachineId, std::vector<std::uint64_t>> running;  ///< open bodies,
                                                            ///< start order
  std::map<std::uint64_t, std::uint64_t> children;  ///< parent id -> count
  std::uint64_t created = 0;
  std::uint64_t grains_n = 0;
  double grain_sum = 0;
  std::int64_t backlog = 0;

  for (const obs::TraceEvent* ev : ordered) {
    if (std::strcmp(ev->name, "task.created") == 0) {
      if (!saw_root) {
        saw_root = true;
        root_id = ev->id;
        continue;  // the root is the program, not a task of it
      }
      ++created;
      ++backlog;
      p.max_queue_depth =
          std::max(p.max_queue_depth, static_cast<double>(backlog));
      auto it = running.find(ev->machine);
      const std::uint64_t parent =
          it != running.end() && !it->second.empty() ? it->second.front()
                                                     : root_id;
      ++children[parent];
    } else if (std::strcmp(ev->name, "task.dispatched") == 0) {
      if (saw_root && ev->id != root_id && backlog > 0) --backlog;
    } else if (std::strcmp(ev->name, "task.body_start") == 0) {
      running[ev->machine].push_back(ev->id);
    } else if (ev->kind == obs::EventKind::kSpanEnd &&
               std::strcmp(ev->name, "task") == 0) {
      auto& open = running[ev->machine];
      open.erase(std::remove(open.begin(), open.end(), ev->id), open.end());
      if (saw_root && ev->id == root_id) continue;
      ++grains_n;
      grain_sum += ev->value;
      p.max_grain = std::max(p.max_grain, ev->value);
    }
  }

  p.tasks = static_cast<double>(created);
  if (grains_n > 0) p.mean_grain = grain_sum / static_cast<double>(grains_n);

  std::uint64_t root_children = 0;
  std::uint64_t other_children = 0;
  std::uint64_t spawners = 0;
  for (const auto& [parent, n] : children) {
    if (parent == root_id) {
      root_children = n;
    } else {
      other_children += n;
      ++spawners;
    }
  }
  p.root_fanout = static_cast<double>(root_children);
  if (spawners > 0)
    p.fanout =
        static_cast<double>(other_children) / static_cast<double>(spawners);
  return p;
}

// --- Chrome-trace JSON ingestion --------------------------------------------
//
// A minimal recursive-descent parser for the subset of JSON our exporter
// emits (objects, arrays, strings, numbers, booleans).  Not a general JSON
// library — but it fully covers write_chrome_trace output, which is the
// only dialect it is asked to read.

namespace {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : object)
      if (k == key) return &v;
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string text) : text_(std::move(text)) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size())
      throw ProtocolError("trace JSON: trailing content at byte " +
                          std::to_string(pos_));
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw ProtocolError("trace JSON: " + what + " at byte " +
                        std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\r' || text_[pos_] == '\t'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  /// Containers nest at most this deep (the exporter writes four levels);
  /// deeper input is rejected before it can overflow the stack.
  static constexpr int kMaxDepth = 256;

  JsonValue value() {
    skip_ws();
    switch (peek()) {
      case '{': return nested(&JsonParser::object);
      case '[': return nested(&JsonParser::array);
      case '"': return string_value();
      case 't': return keyword("true", [] (JsonValue& v) {
        v.kind = JsonValue::Kind::kBool; v.boolean = true; });
      case 'f': return keyword("false", [] (JsonValue& v) {
        v.kind = JsonValue::Kind::kBool; v.boolean = false; });
      case 'n': return keyword("null", [] (JsonValue&) {});
      default: return number();
    }
  }

  JsonValue nested(JsonValue (JsonParser::*container)()) {
    if (depth_ == kMaxDepth)
      fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
    ++depth_;
    JsonValue v = (this->*container)();
    --depth_;
    return v;
  }

  template <typename Fill>
  JsonValue keyword(const char* word, Fill fill) {
    const std::size_t len = std::strlen(word);
    if (text_.compare(pos_, len, word) != 0) fail("bad keyword");
    pos_ += len;
    JsonValue v;
    fill(v);
    return v;
  }

  JsonValue object() {
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') { ++pos_; return v; }
    while (true) {
      skip_ws();
      JsonValue key = string_value();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key.string), value());
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') { ++pos_; return v; }
    while (true) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      expect(']');
      return v;
    }
  }

  JsonValue string_value() {
    JsonValue v;
    v.kind = JsonValue::Kind::kString;
    expect('"');
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return v;
      if (c != '\\') {
        v.string.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      c = text_[pos_++];
      switch (c) {
        case '"': v.string.push_back('"'); break;
        case '\\': v.string.push_back('\\'); break;
        case '/': v.string.push_back('/'); break;
        case 'n': v.string.push_back('\n'); break;
        case 'r': v.string.push_back('\r'); break;
        case 't': v.string.push_back('\t'); break;
        case 'b': v.string.push_back('\b'); break;
        case 'f': v.string.push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("short \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // The exporter only \u-escapes control bytes (< 0x20).
          v.string.push_back(static_cast<char>(code & 0xff));
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  JsonValue number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start) fail("expected a value");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = std::strtod(text_.c_str() + start, nullptr);
    return v;
  }

  std::string text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

/// TraceEvent::name must point at static storage; parsed names are interned
/// in a process-lifetime pool (bounded by the taxonomy's size in practice).
const char* intern_name(const std::string& name) {
  static std::mutex mu;
  static std::set<std::string> pool;
  std::lock_guard<std::mutex> lock(mu);
  return pool.insert(name).first->c_str();
}

obs::Subsystem subsystem_from(const std::string& cat) {
  if (cat == "engine") return obs::Subsystem::kEngine;
  if (cat == "net") return obs::Subsystem::kNet;
  if (cat == "store") return obs::Subsystem::kStore;
  if (cat == "sched") return obs::Subsystem::kSched;
  if (cat == "ft") return obs::Subsystem::kFt;
  return obs::Subsystem::kApp;
}

}  // namespace

std::vector<obs::TraceEvent> read_chrome_trace(std::istream& in) {
  std::ostringstream buf;
  buf << in.rdbuf();
  JsonParser parser(std::move(buf).str());
  const JsonValue doc = parser.parse();
  const JsonValue* events = doc.find("traceEvents");
  if (events == nullptr || events->kind != JsonValue::Kind::kArray)
    throw ProtocolError("trace JSON: missing traceEvents array");

  std::vector<obs::TraceEvent> out;
  out.reserve(events->array.size());
  std::uint64_t seq = 0;
  for (const JsonValue& ev : events->array) {
    const JsonValue* ph = ev.find("ph");
    if (ph == nullptr || ph->kind != JsonValue::Kind::kString)
      throw ProtocolError("trace JSON: event without ph");
    obs::TraceEvent e;
    if (ph->string == "b") e.kind = obs::EventKind::kSpanBegin;
    else if (ph->string == "e") e.kind = obs::EventKind::kSpanEnd;
    else if (ph->string == "i") e.kind = obs::EventKind::kInstant;
    else if (ph->string == "C") e.kind = obs::EventKind::kCounter;
    else continue;  // metadata ("M") and anything newer
    if (const JsonValue* cat = ev.find("cat"))
      e.cat = subsystem_from(cat->string);
    if (const JsonValue* name = ev.find("name"))
      e.name = intern_name(name->string);
    // Range checks before the integer casts: converting an out-of-range
    // double is undefined behaviour, not an error.
    if (const JsonValue* tid = ev.find("tid")) {
      // tid = machine + 1 (0 is the host track).
      if (!(tid->number >= 0 &&
            tid->number <= std::numeric_limits<MachineId>::max()))
        throw ProtocolError("trace JSON: tid out of range");
      e.machine = static_cast<MachineId>(tid->number) - 1;
    }
    if (const JsonValue* ts = ev.find("ts")) e.ts = ts->number * 1e-6;
    if (const JsonValue* args = ev.find("args")) {
      if (const JsonValue* value = args->find("value"))
        e.value = value->number;
      if (const JsonValue* detail = args->find("detail"))
        e.detail = detail->string;
      if (const JsonValue* id = args->find("id")) {
        if (!(id->number >= 0 && id->number < 0x1p64))
          throw ProtocolError("trace JSON: args.id out of range");
        e.id = static_cast<std::uint64_t>(id->number);
      }
    }
    // Span ends carry the correlation id only as the hex "id" field.
    if (e.id == 0) {
      if (const JsonValue* id = ev.find("id");
          id != nullptr && id->kind == JsonValue::Kind::kString &&
          id->string.rfind("0x", 0) == 0)
        e.id = std::strtoull(id->string.c_str() + 2, nullptr, 16);
    }
    e.seq = seq++;  // exporter order == (ts, seq) order by construction
    out.push_back(std::move(e));
  }
  return out;
}

}  // namespace jade::model
