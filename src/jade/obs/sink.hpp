// TraceRecorder — where emitted events go: an in-memory ring buffer.
//
// The recorder keeps the newest `capacity` events: observability must never
// turn a long run into an OOM, so when the ring fills the oldest events are
// dropped and counted (exports report the loss rather than hiding it).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "jade/obs/event.hpp"

namespace jade::obs {

class TraceRecorder {
 public:
  explicit TraceRecorder(std::size_t capacity = kDefaultCapacity);

  /// Takes ownership of one event.  Thread-safe: called from whichever
  /// thread emits.
  void record(TraceEvent ev);

  /// Events currently held, oldest first (seq order).  A copy: the ring may
  /// keep rolling while the caller exports.
  std::vector<TraceEvent> snapshot() const;

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  /// Lifetime totals (recorded counts drops too).
  std::uint64_t recorded() const;
  std::uint64_t dropped() const;

  void clear();

  static constexpr std::size_t kDefaultCapacity = 1 << 20;

 private:
  mutable std::mutex mu_;
  std::deque<TraceEvent> ring_;
  std::size_t capacity_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace jade::obs
