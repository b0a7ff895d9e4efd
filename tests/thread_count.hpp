// The calling process's thread count, for tests that pin how many threads an
// engine starts.  Reads the `Threads:` line of /proc/self/status (Linux).
#pragma once

#include <fstream>
#include <string>

namespace jade {

inline int process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  return -1;
}

}  // namespace jade
