// Lossy-network decorator (ft/).
//
// Wraps any NetworkModel and injects message loss on top of its timing
// model.  Each attempt occupies the underlying medium whether or not it is
// delivered (a dropped Ethernet frame still burned its airtime); the sender
// retransmits after a retry timeout that backs off exponentially, so a
// message's delivery time under loss is
//   sum of k doomed occupancies + k backoff waits + one clean transfer.
// The drop decision is delegated to a hook (the FaultInjector's seeded drop
// stream) so the same seed always loses the same messages.
//
// Messages touching a dead endpoint are "delivered" to the void: they take
// one attempt's network time and vanish, with no retransmission — dead
// endpoints are the recovery protocol's job, not the transport's.
#pragma once

#include <functional>
#include <memory>

#include "jade/net/network.hpp"

namespace jade {

struct FaultyNetConfig {
  SimTime initial_retry_timeout = 2e-3;
  SimTime max_retry_timeout = 64e-3;
  int max_send_attempts = 10;
};

class FaultyNetwork : public NetworkModel {
 public:
  /// `should_drop(from, to)` decides each attempt's fate; it must consume
  /// randomness only for attempts between live endpoints (determinism).
  /// Returning false for every call makes this a pass-through.
  using DropHook = std::function<bool(MachineId from, MachineId to)>;

  FaultyNetwork(std::unique_ptr<NetworkModel> inner, FaultyNetConfig config,
                DropHook should_drop);

  std::string name() const override;
  void reset() override;

  /// Observability is delegated to the inner model: the per-attempt "net.xfer"
  /// spans come from `inner_` (each doomed attempt occupied the medium and is
  /// worth a span of its own), while this wrapper emits only "net.drop" /
  /// "net.retx" instants through its own pointer.  The base-class tracer stays
  /// null so the wrapper does not add a duplicate whole-delivery span.
  void set_observer(obs::Tracer* tracer, obs::MetricsRegistry* metrics) override;

  NetworkModel& inner() { return *inner_; }

  std::uint64_t messages_dropped() const { return messages_dropped_; }
  std::uint64_t message_retries() const { return message_retries_; }

 protected:
  SimTime transfer_impl(MachineId from, MachineId to, std::size_t bytes,
                        SimTime now) override;

  /// A lossy transport cannot ack a broadcast as one unit, so a multicast
  /// decomposes into per-destination reliable unicasts, in `tos` order —
  /// each consumes drop-stream randomness exactly as a plain send would.
  SimTime multicast_impl(MachineId from, std::span<const MachineId> tos,
                         std::size_t bytes, SimTime now) override;

 private:
  std::unique_ptr<NetworkModel> inner_;
  FaultyNetConfig config_;
  DropHook should_drop_;
  std::uint64_t messages_dropped_ = 0;
  std::uint64_t message_retries_ = 0;
  obs::Tracer* fault_tracer_ = nullptr;
  obs::Counter* drop_counter_ = nullptr;
  obs::Counter* retx_counter_ = nullptr;
};

}  // namespace jade
