// Interconnect cost models.
//
// The paper evaluates Jade on three platforms with very different
// interconnects (Section 7.3, Figures 9/10):
//   * Stanford DASH — hardware shared memory (no explicit object motion),
//   * Intel iPSC/860 — a hypercube of point-to-point links,
//   * Mica — Sparc ELC boards on a single shared Ethernet, via PVM.
// A NetworkModel answers one question for the simulator: a message of B
// bytes leaves machine `from` for machine `to` at virtual time `now`; when
// does it arrive?  Models keep contention state (bus occupancy, NIC
// occupancy) so saturation effects — the reason Mica's speedup flattens —
// emerge rather than being baked in.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "jade/obs/metrics.hpp"
#include "jade/obs/tracer.hpp"
#include "jade/support/stats.hpp"
#include "jade/support/time.hpp"

namespace jade {

/// Aggregate traffic counters every model maintains; benches report these.
struct NetworkStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  SimTime busy_time = 0;  ///< medium/NIC occupancy accumulated

  void reset() { *this = NetworkStats{}; }
};

class NetworkModel {
 public:
  virtual ~NetworkModel() = default;

  virtual std::string name() const = 0;

  /// Schedules a transfer and returns its arrival time.  Calls may arrive
  /// out of time order from different machines' perspectives; models only
  /// assume `now` is the current global virtual time (the simulator
  /// guarantees it is).
  ///
  /// Template method: the model-specific timing lives in transfer_impl();
  /// this wrapper emits one "net.xfer" trace span per message (begin at the
  /// send, end at the arrival) and feeds the message-latency histogram when
  /// an observer is attached.
  SimTime schedule_transfer(MachineId from, MachineId to, std::size_t bytes,
                            SimTime now) {
    const SimTime arrival = transfer_impl(from, to, bytes, now);
    if (tracer_ != nullptr && tracer_->enabled() && from != to) {
      const std::uint64_t id = next_trace_msg_id_++;
      tracer_->span_begin_at(now, obs::Subsystem::kNet, "net.xfer", id, from,
                             std::to_string(from) + "->" +
                                 std::to_string(to));
      tracer_->span_end_at(arrival, obs::Subsystem::kNet, "net.xfer", id, to,
                           static_cast<double>(bytes));
    }
    if (latency_hist_ != nullptr && from != to)
      latency_hist_->observe(arrival - now);
    return arrival;
  }

  /// Schedules one logical control message from `from` to every machine in
  /// `tos` (ascending, duplicate-free, `from` excluded) and returns the last
  /// arrival — the coalesced-invalidation primitive.  The base
  /// implementation degenerates to per-destination unicasts; topology models
  /// override multicast_impl to exploit their medium (a shared bus carries
  /// one broadcast frame, switched fabrics pay the sender NIC once).  Emits
  /// a single "net.mcast" span covering the whole fan-out.
  SimTime schedule_multicast(MachineId from, std::span<const MachineId> tos,
                             std::size_t bytes, SimTime now) {
    if (tos.empty()) return now;
    const SimTime last = multicast_impl(from, tos, bytes, now);
    if (tracer_ != nullptr && tracer_->enabled()) {
      const std::uint64_t id = next_trace_msg_id_++;
      tracer_->span_begin_at(now, obs::Subsystem::kNet, "net.mcast", id, from,
                             std::to_string(from) + "->*" +
                                 std::to_string(tos.size()));
      tracer_->span_end_at(last, obs::Subsystem::kNet, "net.mcast", id,
                           tos.back(), static_cast<double>(bytes));
    }
    if (latency_hist_ != nullptr) latency_hist_->observe(last - now);
    return last;
  }

  /// Attaches (or detaches, with nulls) the observability layer.  Wrapper
  /// models (FaultyNetwork) override to propagate to the wrapped model.
  virtual void set_observer(obs::Tracer* tracer,
                            obs::MetricsRegistry* metrics) {
    tracer_ = tracer;
    latency_hist_ =
        metrics ? &metrics->histogram("net.message_latency") : nullptr;
  }

  /// Drops all contention state and counters (between benchmark repetitions).
  virtual void reset() = 0;

  const NetworkStats& stats() const { return stats_; }

 protected:
  /// Model-specific timing: when does the message arrive?
  virtual SimTime transfer_impl(MachineId from, MachineId to,
                                std::size_t bytes, SimTime now) = 0;

  /// Model-specific multicast timing; the default sends one unicast per
  /// destination (correct for any model, optimal for none).
  virtual SimTime multicast_impl(MachineId from,
                                 std::span<const MachineId> tos,
                                 std::size_t bytes, SimTime now) {
    SimTime last = now;
    for (MachineId to : tos)
      last = std::max(last, transfer_impl(from, to, bytes, now));
    return last;
  }

  void record(std::size_t bytes, SimTime occupancy) {
    ++stats_.messages;
    stats_.bytes += bytes;
    stats_.busy_time += occupancy;
  }

  NetworkStats stats_;
  obs::Tracer* tracer_ = nullptr;
  obs::Histogram* latency_hist_ = nullptr;
  std::uint64_t next_trace_msg_id_ = 0;
};

/// Contention-free network: every transfer costs latency + bytes/bandwidth,
/// with unlimited parallelism.  Used as an idealized baseline in ablations.
class IdealNet : public NetworkModel {
 public:
  IdealNet(SimTime latency, double bytes_per_second);

  std::string name() const override { return "ideal"; }
  void reset() override { stats_.reset(); }

 protected:
  SimTime transfer_impl(MachineId from, MachineId to, std::size_t bytes,
                        SimTime now) override;

 private:
  SimTime latency_;
  double bandwidth_;
};

}  // namespace jade
