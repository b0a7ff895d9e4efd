// Shared JSON artifact emitter for the figure benches.
//
// Every bench that records machine-readable results (the BENCH_*.json files
// committed at the repo root and refreshed by the bench-baseline CI job)
// emits the same shape:
//
//   { "bench": "<name>", "rows": [ {"k": v, ...}, ... ] }
//
// Field insertion order is preserved and numbers are printed with fixed
// precision, so re-running a deterministic bench diffs cleanly.  The
// --json-out / --json-out=PATH flag convention is parsed here too, so every
// bench spells it the same way.  Wall-clock rows end with stamp_host(), the
// host they were measured on; virtual-time rows are host-independent.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#ifndef JADE_BUILD_TYPE
#define JADE_BUILD_TYPE "unknown"
#endif

namespace jade::bench {

/// One output row: an ordered list of already-JSON-encoded fields.
class JsonRow {
 public:
  JsonRow& str(const std::string& key, const std::string& value) {
    std::string out = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    out.push_back('"');
    fields_.emplace_back(key, std::move(out));
    return *this;
  }

  JsonRow& num(const std::string& key, double value, int digits = 9) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", digits, value);
    fields_.emplace_back(key, buf);
    return *this;
  }

  JsonRow& count(const std::string& key, std::uint64_t value) {
    fields_.emplace_back(key, std::to_string(value));
    return *this;
  }

  JsonRow& count(const std::string& key, int value) {
    fields_.emplace_back(key, std::to_string(value));
    return *this;
  }

  JsonRow& boolean(const std::string& key, bool value) {
    fields_.emplace_back(key, value ? "true" : "false");
    return *this;
  }

  /// Appends the host a wall-clock row was measured on: its core count,
  /// the build type and the compiler.  Such a row means nothing without
  /// them.
  JsonRow& stamp_host() {
#if defined(__clang__)
    const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
    const char* compiler = "gcc " __VERSION__;
#else
    const char* compiler = "unknown";
#endif
    count("hardware_cores",
          static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    str("build_type", JADE_BUILD_TYPE);
    return str("compiler", compiler);
  }

  const std::vector<std::pair<std::string, std::string>>& fields() const {
    return fields_;
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// The whole artifact; write() exits non-zero on I/O failure, as benches
/// treat a missing artifact as a failed run.
class JsonReport {
 public:
  explicit JsonReport(std::string bench) : bench_(std::move(bench)) {}

  JsonRow& add_row() { return rows_.emplace_back(); }

  void write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::cerr << "cannot write " << path << "\n";
      std::exit(1);
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"rows\": [\n",
                 bench_.c_str());
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "    {");
      const auto& fields = rows_[i].fields();
      for (std::size_t k = 0; k < fields.size(); ++k)
        std::fprintf(f, "%s\"%s\": %s", k == 0 ? "" : ", ",
                     fields[k].first.c_str(), fields[k].second.c_str());
      std::fprintf(f, "}%s\n", i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::cerr << "wrote " << path << "\n";
  }

 private:
  std::string bench_;
  std::vector<JsonRow> rows_;
};

/// Parse `--json-out PATH` / `--json-out=PATH`, falling back to `def`.
inline std::string json_out_path(int argc, char** argv, std::string def) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json-out") == 0 && i + 1 < argc)
      def = argv[++i];
    else if (std::strncmp(argv[i], "--json-out=", 11) == 0)
      def = argv[i] + 11;
  }
  return def;
}

}  // namespace jade::bench
